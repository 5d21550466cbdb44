module Json = Json
(** Re-export: [Metrics.Json] is the library's JSON tree ({!Json}). *)
