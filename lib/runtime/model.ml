(* Communication-model selector: unicast clique vs broadcast congested
   clique (FV22, arXiv:2205.12059). The charged pipelines take the model
   as a value; transports declare their width rule via [Transport.S.unicast].
   The default comes from [CC_MODEL] through [Config]. *)

type t = Config.model = Unicast | Broadcast

let default () = (Config.get ()).model

let name = function Unicast -> "unicast" | Broadcast -> "broadcast"
