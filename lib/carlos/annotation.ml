type t = Release | Release_nt | Request | None_

let to_string = function
  | Release -> "RELEASE"
  | Release_nt -> "RELEASE_NT"
  | Request -> "REQUEST"
  | None_ -> "NONE"
