type t =
  | Ok
  | Bad_request
  | Forbidden
  | Not_found
  | Internal_server_error
  | Not_implemented
  | Service_unavailable

let code = function
  | Ok -> 200
  | Bad_request -> 400
  | Forbidden -> 403
  | Not_found -> 404
  | Internal_server_error -> 500
  | Not_implemented -> 501
  | Service_unavailable -> 503

let reason = function
  | Ok -> "OK"
  | Bad_request -> "Bad Request"
  | Forbidden -> "Forbidden"
  | Not_found -> "Not Found"
  | Internal_server_error -> "Internal Server Error"
  | Not_implemented -> "Not Implemented"
  | Service_unavailable -> "Service Unavailable"

let is_success = function
  | Ok -> true
  | Bad_request | Forbidden | Not_found | Internal_server_error
  | Not_implemented | Service_unavailable ->
      false
