module Transport = Crdb_net.Transport
module Sim = Crdb_sim.Sim

(* CRDB's default liveness TTL. *)
let expiry = 4_500_000

type t = { net : Transport.t }

let create net = { net }

let believed_live t node =
  match Transport.dead_since t.net node with
  | None -> true
  | Some died_at -> Sim.now (Transport.sim t.net) - died_at < expiry

let epoch t node = Transport.epoch t.net node
