(* Memory-model tests: allocation, value ops, latency/contention. *)

open Butterfly

let cfg = { Config.default with Config.processors = 4 }
let alloc1 mem ~node = (Memory.alloc mem ~node 1).(0)

let test_alloc_zeroed () =
  let mem = Memory.create cfg in
  let addrs = Memory.alloc mem ~node:1 8 in
  Alcotest.(check int) "eight words" 8 (Array.length addrs);
  Array.iter (fun a -> Alcotest.(check int) "zeroed" 0 (Memory.read mem a)) addrs;
  Array.iter (fun a -> Alcotest.(check int) "right node" 1 (Memory.node_of a)) addrs

let test_alloc_bad_node () =
  let mem = Memory.create cfg in
  Alcotest.(check bool) "bad node rejected" true
    (try
       ignore (Memory.alloc mem ~node:99 1);
       false
     with Invalid_argument _ -> true)

let test_alloc_growth () =
  let mem = Memory.create cfg in
  let addrs = Memory.alloc mem ~node:0 10_000 in
  Memory.write mem addrs.(9_999) 77;
  Alcotest.(check int) "big alloc usable" 77 (Memory.read mem addrs.(9_999));
  Alcotest.(check int) "used words" 10_000 (Memory.words_used mem ~node:0)

let test_value_ops () =
  let mem = Memory.create cfg in
  let a = alloc1 mem ~node:0 in
  Memory.write mem a 5;
  Alcotest.(check int) "faa returns prev" 5 (Memory.fetch_and_add mem a 3);
  Alcotest.(check int) "faa applied" 8 (Memory.read mem a);
  Alcotest.(check int) "swap returns prev" 8 (Memory.swap mem a 1);
  Alcotest.(check int) "swap applied" 1 (Memory.read mem a);
  Alcotest.(check int) "for returns prev" 1 (Memory.fetch_and_or mem a 6);
  Alcotest.(check int) "for applied" 7 (Memory.read mem a);
  Alcotest.(check bool) "cas hit" true (Memory.compare_and_swap mem a ~expected:7 ~desired:0);
  Alcotest.(check bool) "cas miss" false
    (Memory.compare_and_swap mem a ~expected:7 ~desired:9);
  Alcotest.(check int) "cas applied once" 0 (Memory.read mem a)

let test_unallocated_rejected () =
  let mem = Memory.create cfg in
  let a = alloc1 mem ~node:0 in
  ignore (Memory.read mem a);
  (* Forge a fresh memory with no allocations and reuse the address. *)
  let fresh = Memory.create cfg in
  Alcotest.(check bool) "unallocated read rejected" true
    (try
       ignore (Memory.read fresh a);
       false
     with Invalid_argument _ -> true)

let test_latency_matrix () =
  let mem = Memory.create cfg in
  let a = alloc1 mem ~node:2 in
  let lat from kind = Memory.latency cfg ~from_node:from a kind in
  Alcotest.(check int) "local read" cfg.Config.local_read_ns (lat 2 Memory.Read_access);
  Alcotest.(check int) "remote read" cfg.Config.remote_read_ns (lat 0 Memory.Read_access);
  Alcotest.(check int) "local write" cfg.Config.local_write_ns (lat 2 Memory.Write_access);
  Alcotest.(check int) "remote write" cfg.Config.remote_write_ns (lat 0 Memory.Write_access);
  Alcotest.(check bool) "atomic costs more than read" true
    (lat 2 Memory.Atomic_access > lat 2 Memory.Read_access)

let test_reserve_no_contention () =
  let mem = Memory.create { cfg with Config.contention = false } in
  let a = alloc1 mem ~node:0 in
  let t1 =
    Memory.reserve mem
      { cfg with Config.contention = false }
      ~from_node:0 a Memory.Read_access ~start:100
  in
  Alcotest.(check int) "start + latency" (100 + cfg.Config.local_read_ns) t1

let test_reserve_contention_serializes () =
  let mem = Memory.create cfg in
  let a = alloc1 mem ~node:0 in
  let t1 = Memory.reserve mem cfg ~from_node:1 a Memory.Read_access ~start:0 in
  let t2 = Memory.reserve mem cfg ~from_node:2 a Memory.Read_access ~start:0 in
  Alcotest.(check bool) "second access delayed" true (t2 > t1 - cfg.Config.remote_read_ns);
  Alcotest.(check bool) "module horizon advanced" true (Memory.busy_until mem ~node:0 > 0)

let test_remote_counter () =
  let mem = Memory.create cfg in
  let a = alloc1 mem ~node:0 in
  ignore (Memory.reserve mem cfg ~from_node:0 a Memory.Read_access ~start:0);
  ignore (Memory.reserve mem cfg ~from_node:3 a Memory.Read_access ~start:0);
  Alcotest.(check int) "one remote" 1 (Memory.remote_accesses mem);
  Alcotest.(check int) "two total" 2 (Memory.total_accesses mem)

let prop_faa_sums =
  QCheck.Test.make ~name:"fetch_and_add accumulates" ~count:200
    QCheck.(list (int_range (-100) 100))
    (fun deltas ->
      let mem = Memory.create cfg in
      let a = alloc1 mem ~node:0 in
      List.iter (fun d -> ignore (Memory.fetch_and_add mem a d)) deltas;
      Memory.read mem a = List.fold_left ( + ) 0 deltas)

let suite =
  [
    Alcotest.test_case "alloc zeroed" `Quick test_alloc_zeroed;
    Alcotest.test_case "alloc bad node" `Quick test_alloc_bad_node;
    Alcotest.test_case "alloc growth" `Quick test_alloc_growth;
    Alcotest.test_case "value ops" `Quick test_value_ops;
    Alcotest.test_case "unallocated rejected" `Quick test_unallocated_rejected;
    Alcotest.test_case "latency matrix" `Quick test_latency_matrix;
    Alcotest.test_case "reserve no contention" `Quick test_reserve_no_contention;
    Alcotest.test_case "reserve contention" `Quick test_reserve_contention_serializes;
    Alcotest.test_case "remote counter" `Quick test_remote_counter;
    QCheck_alcotest.to_alcotest prop_faa_sums;
  ]
