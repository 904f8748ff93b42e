type t = Ok | Not_found | Internal_server_error | Service_unavailable

let code = function
  | Ok -> 200
  | Not_found -> 404
  | Internal_server_error -> 500
  | Service_unavailable -> 503

let reason = function
  | Ok -> "OK"
  | Not_found -> "Not Found"
  | Internal_server_error -> "Internal Server Error"
  | Service_unavailable -> "Service Unavailable"
