(** Tests for the Domain work pool and the deterministic-merge contract:
    results commit in task order, a failing task propagates the
    lowest-index error after the batch drains (no hang, pool reusable),
    and the three pooled drivers — feasibility sweep, pass-pipeline
    corpus, buffered telemetry — produce output byte-equal to their
    sequential counterparts at any domain count. *)

module T = Telemetry
module Pool = Parallel.Pool
module Ir = Miniir.Ir
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility

(* A deterministic clock: every reading advances one millisecond.  Only
   the domain that owns a sink reads it — pooled tasks record no spans —
   so sharing one across a differential run is safe. *)
let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. 0.001;
    v

(* -------------------- pool basics -------------------- *)

let test_results_in_order () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  let r = Pool.run pool ~chunk:4 ~scratch:(fun () -> ()) (fun () i -> (7 * i) + 1) 100 in
  Alcotest.(check int) "slot count" 100 (Array.length r);
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) ((7 * i) + 1) v)
    r;
  let empty = Pool.run pool ~scratch:(fun () -> ()) (fun () i -> i) 0 in
  Alcotest.(check int) "empty batch" 0 (Array.length empty)

let test_map_list () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  Alcotest.(check (list string))
    "order preserved"
    [ "a!"; "b!"; "c!" ]
    (Pool.map_list pool ~scratch:(fun () -> ()) (fun () s -> s ^ "!") [ "a"; "b"; "c" ])

let test_scratch_per_domain () =
  (* With one domain the single scratch value must thread through every
     task in index order — the inline path is exactly a sequential fold. *)
  (Pool.with_pool ~jobs:1 @@ fun pool ->
   let r = Pool.run pool ~scratch:(fun () -> ref 0) (fun s _ -> incr s; !s) 8 in
   Alcotest.(check (array int)) "j=1: one scratch, sequential" [| 1; 2; 3; 4; 5; 6; 7; 8 |] r);
  (* With several domains each sees its own counter: values stay positive
     and within the batch size, and a domain's tasks still see its scratch
     grow monotonically per chunk. *)
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let r = Pool.run pool ~chunk:2 ~scratch:(fun () -> ref 0) (fun s _ -> incr s; !s) 32 in
  Array.iter (fun v -> Alcotest.(check bool) "scratch count sane" true (v >= 1 && v <= 32)) r

exception Boom of int

let test_error_propagates_lowest_and_pool_survives () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  (match
     Pool.run pool ~chunk:2 ~scratch:(fun () -> ())
       (fun () i -> if i = 33 || i = 17 then raise (Boom i) else i)
       50
   with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Pool.Task_failed { index; exn; _ } ->
      Alcotest.(check int) "lowest failing index wins" 17 index;
      (match exn with
      | Boom 17 -> ()
      | _ -> Alcotest.fail "wrong payload exception"));
  (* The batch drained and the pool is reusable: the next batch runs. *)
  let r = Pool.run pool ~scratch:(fun () -> ()) (fun () i -> i * i) 10 in
  Alcotest.(check int) "pool survives a failing batch" 81 r.(9)

let test_error_jobs1_same_contract () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  match
    Pool.run pool ~scratch:(fun () -> ()) (fun () i -> if i >= 3 then raise (Boom i) else i) 9
  with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Pool.Task_failed { index; _ } ->
      Alcotest.(check int) "inline path reports the same index" 3 index

(* -------------------- buffered telemetry -------------------- *)

let c_par = T.counter ~group:"test" "par_merge" ~desc:"suite-local merge counter"

let test_fork_join_counters_and_remarks () =
  T.reset_counters ();
  let parent = T.create ~clock:(fake_clock ()) () in
  let a = T.fork parent and b = T.fork parent in
  T.bump a c_par;
  T.add b c_par 4;
  Alcotest.(check int) "buffered: registry untouched before join" 0 c_par.T.value;
  T.remark b ~pass:"p" (fun () -> "from b");
  T.remark a ~pass:"p" (fun () -> "from a");
  T.join parent a;
  T.join parent b;
  Alcotest.(check int) "deltas add up after join" 5 c_par.T.value;
  Alcotest.(check (list string))
    "remarks in join order" [ "from a"; "from b" ]
    (List.map (fun (r : T.remark) -> r.T.rmsg) (T.remarks parent));
  T.reset_counters ()

let test_fork_of_null_is_free () =
  let child = T.fork T.null in
  T.reset_counters ();
  T.bump child c_par;
  T.join T.null child;
  Alcotest.(check int) "null fork counts nothing" 0 c_par.T.value

(* -------------------- the pooled drivers -------------------- *)

let kernel () =
  let e = List.hd Corpus.Kernels.all in
  let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
  P.apply fbase

(* Each pooled driver is checked against its no-pool run at jobs=1 (the
   inline path) and at jobs=4 (fork, shard, join). *)
let with_each_pool (f : Pool.t -> unit) : unit =
  List.iter (fun jobs -> Pool.with_pool ~jobs f) [ 1; 4 ]

let test_sweep_differential () =
  let r = kernel () in
  (* A fresh context for every sweep. *)
  let mk dir () = Osrir.Session.ctx (Osrir.Session.of_result r) dir in
  with_each_pool @@ fun pool ->
  List.iter
    (fun dir ->
      T.reset_counters ();
      let seq_sink = T.create ~clock:(fake_clock ()) () in
      let s_seq = F.analyze ~telemetry:seq_sink (mk dir ()) in
      let seq_counters = T.counters_json () in
      T.reset_counters ();
      let par_sink = T.create ~clock:(fake_clock ()) () in
      (* A small chunk so the point list really shards across tasks. *)
      let s_par = F.analyze ~telemetry:par_sink ~pool ~chunk:8 (mk dir ()) in
      let par_counters = T.counters_json () in
      Alcotest.(check bool) "reports byte-equal" true (s_seq = s_par);
      Alcotest.(check string) "merged counters byte-equal" seq_counters par_counters;
      Alcotest.(check (list string))
        "remarks byte-equal, in point order"
        (List.map T.remark_to_string (T.remarks seq_sink))
        (List.map T.remark_to_string (T.remarks par_sink));
      (* Under a deterministic clock the whole trace matches too: pooled
         chunks record no spans of their own, so both runs contain exactly
         the spans of the sequential sweep. *)
      Alcotest.(check bool)
        "trace events byte-equal under deterministic clocks" true
        (T.trace_events seq_sink = T.trace_events par_sink))
    [ Ctx.Base_to_opt; Ctx.Opt_to_base ];
  T.reset_counters ()

let test_apply_corpus_differential () =
  let fbases =
    List.map
      (fun (e : Corpus.Kernels.entry) -> fst (Corpus.Dsl.to_fbase e.kernel))
      (List.filteri (fun i _ -> i < 4) Corpus.Kernels.all)
  in
  with_each_pool @@ fun pool ->
  T.reset_counters ();
  let seq_sink = T.create ~clock:(fake_clock ()) () in
  let seq = P.apply_corpus ~telemetry:seq_sink fbases in
  let seq_counters = T.counters_json () in
  T.reset_counters ();
  let par_sink = T.create ~clock:(fake_clock ()) () in
  let par = P.apply_corpus ~pool ~telemetry:par_sink fbases in
  let par_counters = T.counters_json () in
  List.iter2
    (fun (a : P.apply_result) (b : P.apply_result) ->
      Alcotest.(check string)
        "optimized IR byte-equal"
        (Ir.func_to_string a.P.fopt)
        (Ir.func_to_string b.P.fopt);
      Alcotest.(check bool) "per-pass action counts equal" true (a.P.per_pass = b.P.per_pass))
    seq par;
  Alcotest.(check string) "merged counters byte-equal" seq_counters par_counters;
  Alcotest.(check (list string))
    "remarks byte-equal, in corpus order"
    (List.map T.remark_to_string (T.remarks seq_sink))
    (List.map T.remark_to_string (T.remarks par_sink));
  T.reset_counters ()

let suite =
  ( "parallel",
    [
      Alcotest.test_case "pool: results in task order" `Quick test_results_in_order;
      Alcotest.test_case "pool: map_list preserves order" `Quick test_map_list;
      Alcotest.test_case "pool: per-domain scratch" `Quick test_scratch_per_domain;
      Alcotest.test_case "pool: lowest error propagates, pool survives" `Quick
        test_error_propagates_lowest_and_pool_survives;
      Alcotest.test_case "pool: jobs=1 error contract" `Quick test_error_jobs1_same_contract;
      Alcotest.test_case "telemetry: fork/join merges deterministically" `Quick
        test_fork_join_counters_and_remarks;
      Alcotest.test_case "telemetry: null fork stays free" `Quick test_fork_of_null_is_free;
      Alcotest.test_case "feasibility: parallel sweep byte-equal" `Quick
        test_sweep_differential;
      Alcotest.test_case "pass manager: parallel corpus byte-equal" `Quick
        test_apply_corpus_differential;
    ] )
