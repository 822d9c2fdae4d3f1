(* The acquire contract, differentially: one script of [lock],
   [try_lock], [lock_timeout] and [unlock] calls at fixed virtual
   times, run on every implementation the one lock record can take —
   the centralized word under each [Lock.kind]'s waiting policy, the
   pinned and swappable registered implementations, and the ladder.
   Every implementation must give the same observations: mutual
   exclusion, the result of each call, the timeout and acquisition
   ticks, no blocking by a timed waiter, and [Misuse] on a foreign or
   double unlock. Costs differ by design and are not compared. *)

open Butterfly
open Cthreads
module L = Locks.Lock_core
module S = Locks.Lock_stats

let cfg = { Config.default with Config.processors = 8 }

let implementations : (string * (unit -> L.t)) list =
  let central kind () = Locks.Lock.create ~home:0 kind in
  let registered impl () = L.create ~home:0 ~impl () in
  List.map
    (fun k -> ("central " ^ Locks.Lock.kind_name k, central k))
    Locks.Lock.
      [
        Spin;
        Backoff;
        Blocking;
        Combined 4;
        Conditional 50_000;
        Advisory;
        Reconfigurable;
        adaptive_default;
      ]
  @ List.map
      (fun (label, impl) -> (label, registered impl))
      [
        ("fixed tas", L.Fixed L.Tas);
        ("fixed mcs", L.Fixed L.Mcs);
        ("fixed blocking", L.Fixed L.Blocking);
        ("swappable tas", L.Swappable L.Tas);
        ("swappable blocking", L.Swappable L.Blocking);
        ("ladder", L.Ladder);
      ]

let misuse f = match f () with () -> "no error" | exception L.Misuse _ -> "Misuse"

(* Runs the script on a fresh lock and returns its observations as
   (label, value) pairs, in script order. *)
let observe make =
  let obs = ref [] in
  let note label v = obs := (label, v) :: !obs in
  let note_bool label b = note label (string_of_bool b) in
  let inside = ref 0 and overlap = ref 0 in
  let critical ns =
    incr inside;
    if !inside > !overlap then overlap := !inside;
    Cthread.work ns;
    decr inside
  in
  let sim = Sched.create cfg in
  Sched.run sim (fun () ->
      let lk = make () in
      let st = L.stats lk in
      (* A free lock: the first attempt is made whatever the deadline. *)
      note_bool "free: try_lock" (L.try_lock lk);
      L.unlock lk;
      note_bool "free: deadline 0" (L.lock_timeout lk ~deadline_ns:0);
      L.unlock lk;
      note_bool "free: deadline -5" (L.lock_timeout lk ~deadline_ns:(-5));
      L.unlock lk;
      (* Timed callers against a 1 ms critical section; each call is
         made 20 us after the holder took the lock. *)
      let blocks0 = S.blocks st in
      let holder =
        Cthread.fork ~proc:1 (fun () ->
            L.lock lk;
            critical 1_000_000;
            L.unlock lk)
      in
      let results = ref [] in
      let caller proc label call =
        Cthread.fork ~proc (fun () ->
            Cthread.delay 20_000;
            let got = call () in
            results := (label, got) :: !results;
            if got then begin
              critical 10_000;
              L.unlock lk
            end)
      in
      let callers =
        [
          caller 2 "held: try_lock" (fun () -> L.try_lock lk);
          caller 3 "held: deadline 0" (fun () -> L.lock_timeout lk ~deadline_ns:0);
          caller 4 "held: deadline -5" (fun () -> L.lock_timeout lk ~deadline_ns:(-5));
          caller 5 "held: deadline +200us" (fun () ->
              L.lock_timeout lk ~deadline_ns:(Cthread.now () + 200_000));
          caller 6 "held: deadline +5ms" (fun () ->
              L.lock_timeout lk ~deadline_ns:(Cthread.now () + 5_000_000));
        ]
      in
      Cthread.join_all (holder :: callers);
      List.iter
        (fun (label, got) -> note_bool label got)
        (List.sort compare !results);
      note "held: timed waiters blocked" (string_of_int (S.blocks st - blocks0));
      note "held: timeouts" (string_of_int (S.timeouts st));
      note "held: waiting after" (string_of_int (L.waiting_now lk));
      (* Untimed callers contending for short critical sections. *)
      let worker proc =
        Cthread.fork ~proc (fun () ->
            for _ = 1 to 5 do
              L.lock lk;
              critical 20_000;
              L.unlock lk
            done)
      in
      Cthread.join_all (List.map worker [ 1; 2; 3; 4 ]);
      note "never two inside" (string_of_bool (!overlap = 1));
      (* Ownership errors. *)
      L.lock lk;
      L.unlock lk;
      note "double unlock" (misuse (fun () -> L.unlock lk));
      let owner =
        Cthread.fork ~proc:1 (fun () ->
            L.lock lk;
            Cthread.delay 50_000;
            L.unlock lk)
      in
      Cthread.delay 10_000;
      note "foreign unlock" (misuse (fun () -> L.unlock lk));
      Cthread.join owner;
      note "lock calls" (string_of_int (S.lock_calls st));
      note "acquisitions" (string_of_int (S.acquired st));
      note "unlocks" (string_of_int (S.unlock_calls st));
      note "timeouts" (string_of_int (S.timeouts st)));
  List.rev !obs

(* What every implementation must observe. The calls on the held lock
   are listed by label, whatever order they complete in: the try_lock
   and the past deadlines fail at once, the 200 us deadline expires
   while the holder still holds, and the 5 ms one is granted after the
   holder's release. *)
let expected =
  [
    ("free: try_lock", "true");
    ("free: deadline 0", "true");
    ("free: deadline -5", "true");
    ("held: deadline +200us", "false");
    ("held: deadline +5ms", "true");
    ("held: deadline -5", "false");
    ("held: deadline 0", "false");
    ("held: try_lock", "false");
    ("held: timed waiters blocked", "0");
    ("held: timeouts", "3");
    ("held: waiting after", "0");
    ("never two inside", "true");
    ("double unlock", "Misuse");
    ("foreign unlock", "Misuse");
    (* 3 free + the holder + 5 held callers + 20 workers + 2 owners;
       4 of the held callers fail, and a refused unlock is not counted *)
    ("lock calls", "31");
    ("acquisitions", "27");
    ("unlocks", "27");
    ("timeouts", "3");
  ]

let render obs = String.concat "\n" (List.map (fun (k, v) -> k ^ " = " ^ v) obs)

let check (label, make) =
  Alcotest.test_case label `Quick (fun () ->
      Alcotest.(check string) (label ^ ": acquire contract") (render expected)
        (render (observe make)))

let suite = List.map check implementations
