module Transport = Crdb_net.Transport
module Sim = Crdb_sim.Sim

type t = { net : Transport.t; expiry : int }

let create ?(expiry = 4_500_000) net = { net; expiry }

let believed_live t node =
  match Transport.dead_since t.net node with
  | None -> true
  | Some died_at -> Sim.now (Transport.sim t.net) - died_at < t.expiry

let epoch t node = Transport.epoch t.net node
let expiry t = t.expiry
