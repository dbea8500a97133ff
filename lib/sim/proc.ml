open Effect
open Effect.Deep

type _ Effect.t += Await : 'a Ivar.t -> 'a Effect.t
type _ Effect.t += Sleep : (Sim.t * int) -> unit Effect.t

let spawn_now sim f =
  let handler =
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Await ivar ->
              Some
                (fun (k : (a, unit) continuation) ->
                  Ivar.on_fill ivar (fun v ->
                      Sim.schedule sim ~after:0 (fun () -> continue k v)))
          | Sleep (s, d) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  Sim.schedule s ~after:d (fun () -> continue k ()))
          | _ -> None);
    }
  in
  match_with f () handler

let spawn sim f = Sim.schedule sim ~after:0 (fun () -> spawn_now sim f)

let async sim f =
  let result = Ivar.create () in
  spawn sim (fun () -> Ivar.fill result (f ()));
  result

let async_catch sim f =
  let result = Ivar.create () in
  spawn sim (fun () ->
      let r = match f () with v -> Ok v | exception e -> Error e in
      Ivar.fill result r);
  result

let await ivar = perform (Await ivar)

let await_catch ivar =
  match perform (Await ivar) with Ok v -> v | Error e -> raise e
let sleep sim d = perform (Sleep (sim, d))

let await_timeout sim ivar ~timeout =
  let wrapped = Ivar.create () in
  let deadline = ref None in
  Ivar.on_fill ivar (fun v ->
      ignore (Ivar.try_fill wrapped (Some v));
      Option.iter Sim.cancel !deadline);
  if not (Ivar.is_full wrapped) then
    deadline :=
      Some
        (Sim.timer sim ~after:timeout (fun () ->
             ignore (Ivar.try_fill wrapped None)));
  await wrapped

let await_all ivars = List.map await ivars

let await_any ivars =
  let wrapped = Ivar.create () in
  List.iter
    (fun iv -> Ivar.on_fill iv (fun v -> ignore (Ivar.try_fill wrapped v)))
    ivars;
  await wrapped

let run_main sim f =
  let result = ref None in
  spawn sim (fun () -> result := Some (f ()));
  Sim.run sim;
  match !result with
  | Some v -> v
  | None -> failwith "Proc.run_main: event queue drained before completion"
