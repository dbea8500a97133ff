(* Wing & Gong's linearizability search for one register: the oracle the
   value-zone check in [Checker.check_linearizable] is tested against.

   A state is (set of linearized operations, register value). An operation
   may be linearized next when its invocation does not follow the
   completion of any other pending operation, and a read only when it
   returns the register's value. Operations with unknown outcome ([Info]
   or pending writes) may take effect at any point after invocation, or
   never; [Failed] writes and reads that returned nothing are ignored.
   States are memoized, but the search is exponential in the worst case:
   it is meant for small hand-made or generated histories. *)

module History = Crdb_check.History

type op = {
  invoked : int;
  completed : int;  (* [max_int] when the outcome is unknown *)
  kind : [ `Read of string option | `Write of string ];
  optional : bool;  (* an unknown-outcome write may never take effect *)
}

let op_of (e : History.entry) =
  let mk kind optional completed = Some { invoked = e.invoked; completed; kind; optional } in
  match (e.op, e.outcome) with
  | History.Read _, Some (History.Ok_read v) -> mk (`Read v) false e.completed
  | History.Write { value; _ }, Some History.Ok_write -> mk (`Write value) false e.completed
  | History.Write { value; _ }, (Some (History.Info _) | None) -> mk (`Write value) true max_int
  | _ -> None

(* Whether the register entries of one key (the initial value is nil) have
   a linearization. *)
let linearizable entries =
  let ops = Array.of_list (List.filter_map op_of entries) in
  let n = Array.length ops in
  if n >= Sys.int_size - 1 then invalid_arg "Wing_gong.linearizable: too many operations";
  let mandatory = ref 0 in
  Array.iteri (fun i o -> if not o.optional then mandatory := !mandatory lor (1 lsl i)) ops;
  let mandatory = !mandatory in
  let visited = Hashtbl.create 256 in
  let rec go set value =
    set land mandatory = mandatory
    || (not (Hashtbl.mem visited (set, value)))
       && begin
         Hashtbl.add visited (set, value) ();
         let pending i = set land (1 lsl i) = 0 in
         let min_end = ref max_int in
         Array.iteri (fun i o -> if pending i then min_end := min !min_end o.completed) ops;
         let step i =
           let set' = set lor (1 lsl i) in
           (match ops.(i).kind with
           | `Write v -> go set' (Some v)
           | `Read v -> v = value && go set' value)
           || (ops.(i).optional && go set' value)
         in
         let rec from i =
           i < n && ((pending i && ops.(i).invoked <= !min_end && step i) || from (i + 1))
         in
         from 0
       end
  in
  go 0 None
