(* Tests for the discrete-event loop, ivars and effect-based processes. *)

module Sim = Crdb_sim.Sim
module Ivar = Crdb_sim.Ivar
module Proc = Crdb_sim.Proc

let check = Alcotest.check

let test_event_ordering () =
  let sim = Sim.create () in
  let order = ref [] in
  let record tag () = order := tag :: !order in
  Sim.schedule sim ~after:20 (record "c");
  Sim.schedule sim ~after:10 (record "a");
  Sim.schedule sim ~after:10 (record "b");
  Sim.run sim;
  check Alcotest.(list string) "time then FIFO" [ "a"; "b"; "c" ]
    (List.rev !order);
  check Alcotest.int "clock at last event" 20 (Sim.now sim)

let test_run_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~after:10 (fun () -> incr fired);
  Sim.schedule sim ~after:100 (fun () -> incr fired);
  Sim.run ~until:50 sim;
  check Alcotest.int "only first fired" 1 !fired;
  check Alcotest.int "now advanced to limit" 50 (Sim.now sim);
  Sim.run sim;
  check Alcotest.int "second fires later" 2 !fired;
  check Alcotest.int "final time" 100 (Sim.now sim)

let test_timer_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let tm = Sim.timer sim ~after:10 (fun () -> fired := true) in
  check Alcotest.bool "pending" true (Sim.timer_pending tm);
  Sim.cancel tm;
  Sim.run sim;
  check Alcotest.bool "cancelled timer does not fire" false !fired

let test_cancel_drops_pending () =
  let sim = Sim.create () in
  let timers = List.init 5 (fun i -> Sim.timer sim ~after:(10 * (i + 1)) ignore) in
  Sim.schedule sim ~after:25 ignore;
  check Alcotest.int "queued" 6 (Sim.pending sim);
  Sim.cancel (List.nth timers 2);
  check Alcotest.int "cancel removes at once" 5 (Sim.pending sim);
  Sim.cancel (List.hd timers);
  check Alcotest.int "cancelling the head" 4 (Sim.pending sim);
  Sim.run sim;
  check Alcotest.int "last live event" 50 (Sim.now sim)

let test_cancel_noop () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let tm = Sim.timer sim ~after:10 (fun () -> incr fired) in
  Sim.schedule sim ~after:20 ignore;
  Sim.run ~until:15 sim;
  check Alcotest.int "fired once" 1 !fired;
  check Alcotest.bool "no longer pending" false (Sim.timer_pending tm);
  Sim.cancel tm;
  check Alcotest.int "cancelling a fired timer" 1 (Sim.pending sim);
  let tm2 = Sim.timer sim ~after:10 (fun () -> incr fired) in
  Sim.cancel tm2;
  Sim.cancel tm2;
  check Alcotest.int "cancelling twice" 1 (Sim.pending sim);
  Sim.run sim;
  check Alcotest.int "cancelled timer never fired" 1 !fired;
  check Alcotest.int "drained" 0 (Sim.pending sim)

(* Events fire in [(time, seq)] order: by time, ties in scheduling order. *)
let prop_drain_order =
  QCheck.Test.make ~name:"events fire in (time, seq) order" ~count:200
    QCheck.(list small_nat)
    (fun delays ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iteri
        (fun i d -> Sim.schedule sim ~after:d (fun () -> fired := i :: !fired))
        delays;
      Sim.run sim;
      let expected =
        List.mapi (fun i d -> (d, i)) delays |> List.sort compare |> List.map snd
      in
      List.rev !fired = expected)

(* A sorted-list reference for the queue: random interleavings of
   [schedule], [timer], [cancel] (of any timer, so also from the middle of
   the heap) and [step] fire the same events in the same order, with the
   same clock and the same [pending] count after every operation. *)
type op = Schedule of int | Timer of int | Cancel of int | Step

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun d -> Schedule d) (int_bound 40));
        (3, map (fun d -> Timer d) (int_bound 40));
        (2, map (fun k -> Cancel k) nat);
        (2, return Step);
      ])

let show_op = function
  | Schedule d -> Printf.sprintf "schedule %d" d
  | Timer d -> Printf.sprintf "timer %d" d
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Step -> "step"

let prop_queue_model =
  QCheck.Test.make ~name:"queue matches a sorted-list model" ~count:300
    QCheck.(
      make ~print:(fun ops -> String.concat "; " (List.map show_op ops))
        Gen.(list_size (int_bound 300) op_gen))
    (fun ops ->
      let sim = Sim.create () in
      let fired = ref [] in
      (* Model: pending [(time, seq)] keys, sorted; clock; firing log. *)
      let model = ref [] and clock = ref 0 and next = ref 0 in
      let log = ref [] in
      let timers = ref [||] in
      let add d =
        let key = (!clock + d, !next) in
        incr next;
        model := List.merge compare [ key ] !model;
        key
      in
      let fire key () = fired := key :: !fired in
      let model_step () =
        match !model with
        | [] -> ()
        | ((time, _) as key) :: rest ->
            model := rest;
            clock := time;
            log := key :: !log
      in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Schedule d -> Sim.schedule sim ~after:d (fire (add d))
          | Timer d ->
              let key = add d in
              let tm = Sim.timer sim ~after:d (fire key) in
              timers := Array.append !timers [| (key, tm) |]
          | Cancel k ->
              let n = Array.length !timers in
              if n > 0 then begin
                let key, tm = !timers.(k mod n) in
                if Sim.timer_pending tm <> List.mem key !model then ok := false;
                Sim.cancel tm;
                model := List.filter (( <> ) key) !model
              end
          | Step ->
              ignore (Sim.step sim);
              model_step ());
          if Sim.pending sim <> List.length !model || Sim.now sim <> !clock then
            ok := false)
        ops;
      while !model <> [] do
        ignore (Sim.step sim);
        model_step ()
      done;
      !ok && (not (Sim.step sim)) && !fired = !log && Sim.now sim = !clock)

let test_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~after:5 (fun () ->
      log := "outer" :: !log;
      Sim.schedule sim ~after:5 (fun () -> log := "inner" :: !log));
  Sim.run sim;
  check Alcotest.(list string) "nested" [ "outer"; "inner" ] (List.rev !log);
  check Alcotest.int "time" 10 (Sim.now sim)

let test_ivar () =
  let iv = Ivar.create () in
  let seen = ref [] in
  Ivar.on_fill iv (fun v -> seen := v :: !seen);
  check Alcotest.bool "empty" false (Ivar.is_full iv);
  Ivar.fill iv 42;
  check Alcotest.(option int) "peek" (Some 42) (Ivar.peek iv);
  check Alcotest.(list int) "waiter ran" [ 42 ] !seen;
  Ivar.on_fill iv (fun v -> seen := (v * 2) :: !seen);
  check Alcotest.(list int) "late waiter runs immediately" [ 84; 42 ] !seen;
  check Alcotest.bool "try_fill on full" false (Ivar.try_fill iv 0);
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already full")
    (fun () -> Ivar.fill iv 0)

(* [spawn_now] runs its body inside the calling event, up to the body's
   first suspension; [spawn] defers its body by one event. *)
let test_proc_spawn_now () =
  let sim = Sim.create () in
  let log = ref [] in
  let note s = log := s :: !log in
  Sim.schedule sim ~after:5 (fun () ->
      Proc.spawn sim (fun () -> note "spawned");
      Proc.spawn_now sim (fun () ->
          note "now";
          Proc.sleep sim 10;
          note (Printf.sprintf "woke at %d" (Sim.now sim)));
      note "event done");
  Sim.run sim;
  check
    Alcotest.(list string)
    "order"
    [ "now"; "event done"; "spawned"; "woke at 15" ]
    (List.rev !log)

let test_proc_sleep_sequencing () =
  let sim = Sim.create () in
  let log = ref [] in
  let result =
    Proc.run_main sim (fun () ->
        log := ("start", Sim.now sim) :: !log;
        Proc.sleep sim 100;
        log := ("mid", Sim.now sim) :: !log;
        Proc.sleep sim 50;
        log := ("end", Sim.now sim) :: !log;
        Sim.now sim)
  in
  check Alcotest.int "returns" 150 result;
  check
    Alcotest.(list (pair string int))
    "timeline"
    [ ("start", 0); ("mid", 100); ("end", 150) ]
    (List.rev !log)

let test_proc_await () =
  let sim = Sim.create () in
  let iv = Ivar.create () in
  Sim.schedule sim ~after:30 (fun () -> Ivar.fill iv "hello");
  let v, at =
    Proc.run_main sim (fun () ->
        let v = Proc.await iv in
        (v, Sim.now sim))
  in
  check Alcotest.string "value" "hello" v;
  check Alcotest.int "woke at fill time" 30 at

let test_proc_await_timeout () =
  let sim = Sim.create () in
  let iv : int Ivar.t = Ivar.create () in
  let r =
    Proc.run_main sim (fun () -> Proc.await_timeout sim iv ~timeout:100)
  in
  check Alcotest.(option int) "timed out" None r;
  let sim2 = Sim.create () in
  let iv2 = Ivar.create () in
  Sim.schedule sim2 ~after:10 (fun () -> Ivar.fill iv2 5);
  let r2 =
    Proc.run_main sim2 (fun () -> Proc.await_timeout sim2 iv2 ~timeout:100)
  in
  check Alcotest.(option int) "filled first" (Some 5) r2;
  (* The answered wait cancelled its timeout: nothing is left to run, and
     draining the queue leaves the clock at the reply. *)
  check Alcotest.int "timeout cancelled" 0 (Sim.pending sim2);
  check Alcotest.int "clock at reply" 10 (Sim.now sim2)

let test_proc_parallel_rpcs () =
  let sim = Sim.create () in
  let total =
    Proc.run_main sim (fun () ->
        let worker d = Proc.async sim (fun () -> Proc.sleep sim d; d) in
        let ivs = List.map worker [ 30; 10; 20 ] in
        let results = Proc.await_all ivs in
        check Alcotest.int "parallel, not serial" 30 (Sim.now sim);
        List.fold_left ( + ) 0 results)
  in
  check Alcotest.int "all results" 60 total

let test_proc_await_any () =
  let sim = Sim.create () in
  let winner =
    Proc.run_main sim (fun () ->
        let mk d v = Proc.async sim (fun () -> Proc.sleep sim d; v) in
        Proc.await_any [ mk 50 "slow"; mk 5 "fast"; mk 20 "mid" ])
  in
  check Alcotest.string "fastest wins" "fast" winner

let test_run_main_deadlock () =
  let sim = Sim.create () in
  let iv : unit Ivar.t = Ivar.create () in
  Alcotest.check_raises "deadlock detected"
    (Failure "Proc.run_main: event queue drained before completion") (fun () ->
      Proc.run_main sim (fun () -> Proc.await iv))

let test_determinism () =
  let run () =
    let sim = Sim.create () in
    let rng = Crdb_stdx.Rng.create ~seed:99 in
    let log = ref [] in
    for i = 1 to 50 do
      Sim.schedule sim ~after:(Crdb_stdx.Rng.int rng 1000) (fun () ->
          log := (i, Sim.now sim) :: !log)
    done;
    Sim.run sim;
    !log
  in
  check Alcotest.bool "identical runs" true (run () = run ())

let suite =
  [
    Alcotest.test_case "event ordering" `Quick test_event_ordering;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
    Alcotest.test_case "cancel drops pending" `Quick test_cancel_drops_pending;
    Alcotest.test_case "cancel fired or cancelled is a no-op" `Quick
      test_cancel_noop;
    QCheck_alcotest.to_alcotest prop_drain_order;
    QCheck_alcotest.to_alcotest prop_queue_model;
    Alcotest.test_case "nested schedule" `Quick test_nested_schedule;
    Alcotest.test_case "ivar" `Quick test_ivar;
    Alcotest.test_case "proc spawn_now" `Quick test_proc_spawn_now;
    Alcotest.test_case "proc sleep" `Quick test_proc_sleep_sequencing;
    Alcotest.test_case "proc await" `Quick test_proc_await;
    Alcotest.test_case "proc await_timeout" `Quick test_proc_await_timeout;
    Alcotest.test_case "proc parallel" `Quick test_proc_parallel_rpcs;
    Alcotest.test_case "proc await_any" `Quick test_proc_await_any;
    Alcotest.test_case "run_main deadlock" `Quick test_run_main_deadlock;
    Alcotest.test_case "determinism" `Quick test_determinism;
  ]
