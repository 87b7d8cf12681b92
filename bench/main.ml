(** The paper-table harness: regenerates every table and figure of the
    paper's evaluation (Section 6: Tables 1–3, Figures 7–8; Section 7:
    Tables 4–5, Figure 9) over this repository's corpus, plus ablation
    studies of the design choices called out in DESIGN.md and the
    parallel-sweep scaling run.  The cost of the OSR machinery itself is
    measured by [osrbench] ([make osrbench]).

    Usage: [bench/main.exe [table1|table2|fig7|fig8|table3|table4|fig9|
    table5|ablate|perf-par|smoke|all]] (default: all, the deterministic
    tables, figures and ablation); [smoke] is the fast self-check wired
    into [dune runtest]. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module CM = Passes.Code_mapper
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility
module S = Osrir.Session
module R = Osrir.Reconstruct_ir

(* ------------------------------------------------------------------ *)
(* Shared per-kernel sessions, computed once                            *)
(* ------------------------------------------------------------------ *)

(** Each kernel's OSR session: the pass pipeline runs once per kernel,
    each direction's sweep on first use. *)
let kernels : (Corpus.Kernels.entry * S.t) list Lazy.t =
  lazy
    (List.map
       (fun (e : Corpus.Kernels.entry) -> (e, S.create (fst (Corpus.Dsl.to_fbase e.kernel))))
       Corpus.Kernels.all)

(* ------------------------------------------------------------------ *)
(* Table 1: per-pass instrumentation statistics                         *)
(* ------------------------------------------------------------------ *)

let pass_sources =
  [
    ("ADCE", "lib/passes/adce.ml");
    ("CP", "lib/passes/constprop.ml");
    ("CSE", "lib/passes/cse.ml");
    ("LICM", "lib/passes/licm.ml");
    ("SCCP", "lib/passes/sccp.ml");
    ("Sink", "lib/passes/sink.ml");
    ("LC", "lib/passes/loop_canon.ml");
    ("LCSSA", "lib/passes/lcssa.ml");
    ("other", "lib/passes/code_mapper.ml");
  ]

(* The harness may run from the repo root or from anywhere inside _build;
   dune tells executables where the workspace root is. *)
let read_source rel =
  let candidates =
    (match Sys.getenv_opt "DUNE_SOURCEROOT" with
    | Some root -> [ Filename.concat root rel ]
    | None -> [])
    @ [ rel; Filename.concat "../.." rel; Filename.concat "../../.." rel ]
  in
  List.find_map
    (fun path ->
      match In_channel.with_open_text path In_channel.input_all with
      | contents -> Some contents
      | exception Sys_error _ -> None)
    candidates

let count_lines rel =
  Option.map (fun c -> List.length (String.split_on_char '\n' c)) (read_source rel)

let count_instrumentation rel =
  Option.map
    (fun contents ->
      let count needle =
        let n = String.length needle in
        let rec go i acc =
          if i + n > String.length contents then acc
          else if String.sub contents i n = needle then go (i + n) (acc + 1)
          else go (i + 1) acc
        in
        go 0 0
      in
      count "Code_mapper.add_instr" + count "Code_mapper.delete_instr"
      + count "Code_mapper.hoist_instr" + count "Code_mapper.sink_instr"
      + count "Code_mapper.replace_all_uses" + count "Code_mapper.replace_use_in")
    (read_source rel)

let table1 () =
  let actions_across_corpus name =
    List.fold_left
      (fun acc (_, s) ->
        match List.assoc_opt name (S.result s).per_pass with
        | Some (c : CM.counts) -> acc + c.add + c.delete + c.hoist + c.sink + c.replace
        | None -> acc)
      0 (Lazy.force kernels)
  in
  let rows =
    List.map
      (fun (name, path) ->
        let loc = match count_lines path with Some n -> string_of_int n | None -> "?" in
        let sites =
          match count_instrumentation path with Some n -> string_of_int n | None -> "?"
        in
        let recorded =
          if name = "other" then "-" else string_of_int (actions_across_corpus name)
        in
        [ name; loc; sites; recorded ])
      pass_sources
  in
  print_string
    (Report.table
       ~title:
         "Table 1 - OSR-aware passes: size, CodeMapper instrumentation sites, and\n\
          actions recorded across the whole kernel corpus (the paper reports\n\
          edits to LLVM's C++ passes; here the passes are ours, so LOC covers\n\
          the full pass)"
       ~header:[ "pass"; "LOC"; "instr. sites"; "actions on corpus" ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 2: IR features of the analyzed code                            *)
(* ------------------------------------------------------------------ *)

let table2 () =
  let rows =
    List.map
      (fun ((e : Corpus.Kernels.entry), s) ->
        let r = S.result s in
        let c = CM.counts r.mapper in
        [
          e.benchmark;
          string_of_int (Ir.instr_count r.fbase);
          string_of_int (Ir.phi_count r.fbase);
          string_of_int (Ir.instr_count r.fopt);
          string_of_int (Ir.phi_count r.fopt);
          string_of_int c.add;
          string_of_int c.delete;
          string_of_int c.hoist;
          string_of_int c.sink;
          string_of_int c.replace;
        ])
      (Lazy.force kernels)
  in
  print_string
    (Report.table
       ~title:"Table 2 - IR features of analyzed code and primitive actions tracked"
       ~header:
         [ "benchmark"; "|fbase|"; "|phi_b|"; "|fopt|"; "|phi_o|"; "add"; "delete"; "hoist";
           "sink"; "replace" ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figures 7/8: feasible OSR point breakdown                            *)
(* ------------------------------------------------------------------ *)

let figure ~title dir () =
  let entries =
    List.map
      (fun ((e : Corpus.Kernels.entry), s) ->
        let empty, live, avail = F.percentages (S.summary s dir) in
        (e.benchmark, [ ('.', empty); ('#', live); ('+', avail) ]))
      (Lazy.force kernels)
  in
  print_string (Report.stacked_bars ~title entries);
  print_newline ()

let fig7 =
  figure
    ~title:
      "Figure 7 - Breakdown of feasible fbase -> fopt OSR points\n\
       (. = c is empty, # = live reconstructs, + = avail reconstructs)"
    Ctx.Base_to_opt

let fig8 =
  figure
    ~title:
      "Figure 8 - Breakdown of feasible fopt -> fbase OSR points\n\
       (. = c is empty, # = live reconstructs, + = avail reconstructs)"
    Ctx.Opt_to_base

(* ------------------------------------------------------------------ *)
(* Table 3: compensation-code and keep-set sizes                        *)
(* ------------------------------------------------------------------ *)

let table3 () =
  let f2 = Report.fmt_float in
  let rows =
    List.map
      (fun ((e : Corpus.Kernels.entry), s) ->
        let fwd = S.summary s Ctx.Base_to_opt and bwd = S.summary s Ctx.Opt_to_base in
        let favg_l, fmax_l = F.comp_stats fwd `Live in
        let favg_a, fmax_a = F.comp_stats fwd `Avail in
        let fkavg, fkmax = F.keep_stats fwd in
        let bavg_l, bmax_l = F.comp_stats bwd `Live in
        let bavg_a, bmax_a = F.comp_stats bwd `Avail in
        let bkavg, bkmax = F.keep_stats bwd in
        [
          e.benchmark;
          f2 favg_l; string_of_int fmax_l;
          f2 favg_a; string_of_int fmax_a;
          f2 fkavg; string_of_int fkmax;
          f2 bavg_l; string_of_int bmax_l;
          f2 bavg_a; string_of_int bmax_a;
          f2 bkavg; string_of_int bkmax;
        ])
      (Lazy.force kernels)
  in
  print_string
    (Report.table
       ~title:
         "Table 3 - compensation-code size |c| (avg/max) for live and avail and\n\
          keep-set size |K| (avg/max); left: fbase -> fopt, right: fopt -> fbase"
       ~header:
         [ "benchmark"; "cl avg"; "max"; "ca avg"; "max"; "K avg"; "max";
           "cl avg"; "max"; "ca avg"; "max"; "K avg"; "max" ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 7: the debugging study (Tables 4, 5 and Figure 9)            *)
(* ------------------------------------------------------------------ *)

type study_data = {
  prof : Corpus.Spec_c.profile;
  reports : Debuginfo.Endangered.func_report list;
}

let study_data : study_data list Lazy.t =
  lazy
    (List.map
       (fun (prof : Corpus.Spec_c.profile) ->
         let reports =
           List.map
             (fun (sf : Corpus.Spec_c.study_func) ->
               let r = P.apply sf.fbase in
               Debuginfo.Endangered.analyze_function ~fbase:r.fbase ~fopt:r.fopt
                 ~mapper:r.mapper ~user_vars:sf.dbg.user_vars
                 ~source_points:sf.dbg.source_points)
             (Corpus.Spec_c.functions_of prof)
         in
         { prof; reports })
       Corpus.Spec_c.profiles)

let table4 () =
  let f2 = Report.fmt_float in
  let rows =
    List.map
      (fun sd ->
        let total = List.length sd.reports in
        let opt = List.filter (fun r -> r.Debuginfo.Endangered.optimized) sd.reports in
        let endd = List.filter Debuginfo.Endangered.is_endangered sd.reports in
        let fractions = List.map Debuginfo.Endangered.affected_fraction endd in
        let weights =
          List.map (fun r -> float_of_int r.Debuginfo.Endangered.base_size) endd
        in
        let avg_u, _ = Report.mean_stddev fractions in
        let avg_w =
          match weights with
          | [] -> 0.0
          | _ ->
              List.fold_left2 (fun acc f w -> acc +. (f *. w)) 0.0 fractions weights
              /. List.fold_left ( +. ) 0.0 weights
        in
        let per_point =
          List.concat_map
            (fun r -> List.map float_of_int (Debuginfo.Endangered.endangered_counts r))
            endd
        in
        let mean, sd_ = Report.mean_stddev per_point in
        let peak = List.fold_left max 0.0 per_point in
        [
          sd.prof.bench;
          string_of_int total;
          string_of_int (List.length opt);
          string_of_int (List.length endd);
          f2 avg_w;
          f2 avg_u;
          f2 mean;
          f2 sd_;
          string_of_int (int_of_float peak);
        ])
      (Lazy.force study_data)
  in
  print_string
    (Report.table
       ~title:
         "Table 4 - debugging study over the SPEC-C function families\n\
          (|Ftot| scaled 1/16 of the paper's; see EXPERIMENTS.md)"
       ~header:
         [ "benchmark"; "|Ftot|"; "|Fopt|"; "|Fend|"; "Avg_w"; "Avg_u"; "avg"; "sigma"; "max" ]
       rows);
  print_newline ()

let fig9 () =
  let entries =
    List.map
      (fun sd ->
        let endd = List.filter Debuginfo.Endangered.is_endangered sd.reports in
        let weighted which =
          let pairs =
            List.filter_map
              (fun r ->
                Option.map
                  (fun ratio -> (ratio, float_of_int r.Debuginfo.Endangered.base_size))
                  (Debuginfo.Endangered.recoverability r which))
              endd
          in
          match pairs with
          | [] -> 1.0
          | _ ->
              List.fold_left (fun acc (x, w) -> acc +. (x *. w)) 0.0 pairs
              /. List.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs
        in
        (sd.prof.bench, [ ("live", weighted `Live); ("avail", weighted `Avail) ]))
      (Lazy.force study_data)
  in
  print_string
    (Report.ratio_bars
       ~title:"Figure 9 - global average recoverability ratio (weighted by |fbase|)"
       entries);
  print_newline ()

let table5 () =
  let f2 = Report.fmt_float in
  let rows =
    List.map
      (fun sd ->
        let endd = List.filter Debuginfo.Endangered.is_endangered sd.reports in
        let keeps = List.map (fun r -> Debuginfo.Endangered.keep_set r) endd in
        let nonempty = List.filter (fun k -> k <> []) keeps in
        let frac =
          match endd with
          | [] -> 0.0
          | _ -> float_of_int (List.length nonempty) /. float_of_int (List.length endd)
        in
        let sizes = List.map (fun k -> float_of_int (List.length k)) nonempty in
        let avg, sd_ = Report.mean_stddev sizes in
        [ sd.prof.bench; f2 frac; f2 avg; f2 sd_ ])
      (Lazy.force study_data)
  in
  print_string
    (Report.table
       ~title:"Table 5 - values to preserve for avail (share of Fend, avg, sigma)"
       ~header:[ "benchmark"; "frac"; "avg"; "sigma" ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Parallel sweep scaling (`perf-par` -> BENCH_parallel.json)           *)
(* ------------------------------------------------------------------ *)

(** One full fwd+bwd sweep over the corpus, through [pool] when given:
    a fresh session over each kernel's pipeline result every run (the
    per-version side analyses are built serially in the caller's domain),
    point classification sharded across the pool.  Returns total points
    classified. *)
let sweep ?pool ?telemetry (results : P.apply_result list) : int =
  List.fold_left
    (fun acc r ->
      let s = S.of_result ?telemetry r in
      acc + (S.summary ?pool s Ctx.Base_to_opt).total_points
      + (S.summary ?pool s Ctx.Opt_to_base).total_points)
    0 results

(** One warm-up run, then best of three. *)
let best_of_3 (f : unit -> int) : int * float =
  ignore (f () : int);
  let time () =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let runs = List.init 3 (fun _ -> time ()) in
  (fst (List.hd runs), List.fold_left (fun a (_, t) -> min a t) infinity runs)

let write_parallel_json path ~cores ~seq_points ~seq_wall
    ~(rows : (int * int * float) list) ~ov1 ~ovmax =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc
    "  \"benchmark\": \"parallel feasibility sweep fwd+bwd over corpus\",\n";
  Printf.fprintf oc "  \"hardware_cores\": %d,\n" cores;
  Printf.fprintf oc
    "  \"note\": \"hardware_cores is Domain.recommended_domain_count on the \
     measuring machine; pool speedups are bounded above by it\",\n";
  Printf.fprintf oc
    "  \"sequential\": { \"wall_s\": %.6f, \"points_per_sec\": %.1f, \
     \"total_points\": %d },\n"
    seq_wall
    (float_of_int seq_points /. seq_wall)
    seq_points;
  Printf.fprintf oc "  \"pool\": [\n";
  List.iteri
    (fun i (j, pts, wall) ->
      Printf.fprintf oc
        "    { \"jobs\": %d, \"wall_s\": %.6f, \"points_per_sec\": %.1f, \
         \"speedup_vs_seq\": %.3f, \"total_points\": %d }%s\n"
        j wall
        (float_of_int pts /. wall)
        (seq_wall /. wall) pts
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  (match List.find_opt (fun (j, _, _) -> j = 1) rows with
  | Some (_, _, w1) ->
      Printf.fprintf oc "  \"j1_overhead_vs_sequential_pct\": %.2f,\n"
        (100.0 *. (w1 -. seq_wall) /. seq_wall)
  | None -> ());
  Printf.fprintf oc
    "  \"telemetry_live_overhead_pct\": { \"j1\": %.2f, \"jmax\": %.2f },\n" ov1 ovmax;
  (* Fork/merge cost proper: live-vs-null overhead growth from the inline
     j=1 path (no forks) to the widest pool (one fork per chunk). *)
  Printf.fprintf oc "  \"merge_overhead_pct\": %.2f\n" (ovmax -. ov1);
  Printf.fprintf oc "}\n";
  close_out oc

let parallel_perf () =
  let kds = List.map (fun (_, s) -> S.result s) (Lazy.force kernels) in
  let cores = Domain.recommended_domain_count () in
  let seq_points, seq_wall = best_of_3 (fun () -> sweep kds) in
  let js = List.sort_uniq compare [ 1; 2; 4; cores ] in
  let rows =
    List.map
      (fun j ->
        Parallel.Pool.with_pool ~jobs:j (fun pool ->
            let pts, wall = best_of_3 (fun () -> sweep ~pool kds) in
            (j, pts, wall)))
      js
  in
  (* Telemetry cost of the pooled sweep under a live buffered sink, at the
     inline j=1 path and at the widest pool; their difference isolates the
     per-chunk fork + join overhead. *)
  let live_overhead j =
    Parallel.Pool.with_pool ~jobs:j (fun pool ->
        let _, null_wall = best_of_3 (fun () -> sweep ~pool kds) in
        let _, live_wall =
          best_of_3 (fun () ->
              Telemetry.reset_counters ();
              sweep ~pool ~telemetry:(Telemetry.create ()) kds)
        in
        Telemetry.reset_counters ();
        100.0 *. (live_wall -. null_wall) /. null_wall)
  in
  let jmax = List.fold_left max 1 js in
  let ov1 = live_overhead 1 in
  let ovmax = live_overhead jmax in
  print_endline "Parallel feasibility sweep (fwd + bwd over corpus, best of 3):";
  Printf.printf "  %-12s %10s %12s %14s %9s\n" "config" "points" "wall (ms)" "points/sec"
    "speedup";
  Printf.printf "  %-12s %10d %12.2f %14.0f %8s\n" "sequential" seq_points
    (1000.0 *. seq_wall)
    (float_of_int seq_points /. seq_wall)
    "1.00x";
  List.iter
    (fun (j, pts, wall) ->
      Printf.printf "  %-12s %10d %12.2f %14.0f %8.2fx\n"
        (Printf.sprintf "pool -j %d" j)
        pts (1000.0 *. wall)
        (float_of_int pts /. wall)
        (seq_wall /. wall))
    rows;
  Printf.printf "  live-sink overhead: %+.2f%% at j=1, %+.2f%% at j=%d (merge %+.2f%%)\n"
    ov1 ovmax jmax (ovmax -. ov1);
  Printf.printf "  hardware cores: %d\n" cores;
  write_parallel_json "BENCH_parallel.json" ~cores ~seq_points ~seq_wall ~rows ~ov1 ~ovmax;
  print_endline "  wrote BENCH_parallel.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Smoke check (wired into `dune runtest`; also `make bench-smoke`)     *)
(* ------------------------------------------------------------------ *)

(** Check the pooled paths against the sequential ones on two kernels,
    the BENCH_parallel.json writer, and the instrumented path: build and
    sweep under a live sink, emit a Chrome trace and validate it with the
    in-tree JSON reader. *)
let smoke () =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("bench smoke: FAILED: " ^ m);
        exit 1)
      fmt
  in
  (* Two-domain parallel slice: the pooled paths must match the sequential
     ones byte-for-byte on a small corpus before the perf numbers mean
     anything. *)
  let entries2 = List.filteri (fun i _ -> i < 2) Corpus.Kernels.all in
  let fbases2 =
    List.map (fun (e : Corpus.Kernels.entry) -> fst (Corpus.Dsl.to_fbase e.kernel)) entries2
  in
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let squares =
        Parallel.Pool.run pool ~scratch:(fun () -> ()) (fun () i -> i * i) 64
      in
      Array.iteri
        (fun i v -> if v <> i * i then fail "pool run: slot %d holds %d" i v)
        squares;
      let seq = P.apply_corpus fbases2 in
      let par = P.apply_corpus ~pool fbases2 in
      List.iter2
        (fun ((e : Corpus.Kernels.entry), (a : P.apply_result)) (b : P.apply_result) ->
          if Ir.func_to_string a.fopt <> Ir.func_to_string b.fopt then
            fail "parallel pass pipeline produced different IR for %s" e.benchmark;
          (* Each sweep gets a fresh context of its own. *)
          let ctx () = S.ctx (S.of_result a) Ctx.Base_to_opt in
          Telemetry.reset_counters ();
          let s_seq = F.analyze ~telemetry:(Telemetry.create ()) (ctx ()) in
          let c_seq = Telemetry.counters_json () in
          Telemetry.reset_counters ();
          let s_par = F.analyze ~telemetry:(Telemetry.create ()) ~pool ~chunk:16 (ctx ()) in
          let c_par = Telemetry.counters_json () in
          if s_seq <> s_par then
            fail "parallel sweep summary differs from sequential for %s" e.benchmark;
          if c_seq <> c_par then fail "merged counters differ from sequential for %s" e.benchmark)
        (List.combine entries2 seq) par);
  (* The BENCH_parallel.json writer must emit loadable JSON. *)
  let ppath = Filename.temp_file "osr_par_smoke" ".json" in
  write_parallel_json ppath ~cores:2 ~seq_points:100 ~seq_wall:1.0
    ~rows:[ (1, 100, 1.0); (2, 100, 0.9) ]
    ~ov1:0.5 ~ovmax:1.5;
  let pcontents = In_channel.with_open_text ppath In_channel.input_all in
  Sys.remove ppath;
  let module J = Telemetry.Json in
  (match J.parse pcontents with
  | Error e -> fail "parallel bench JSON unparseable: %s" e
  | Ok json -> (
      match (J.member "sequential" json, J.member "pool" json) with
      | Some (J.Obj _), Some (J.Arr (_ :: _)) -> ()
      | _ -> fail "parallel bench JSON lacks \"sequential\"/\"pool\""));
  let sink = Telemetry.create () in
  Telemetry.reset_counters ();
  if List.length entries2 <> 2 then
    fail "expected 2 kernels, corpus has %d" (List.length entries2);
  let points =
    List.fold_left2
      (fun acc (e : Corpus.Kernels.entry) fbase ->
        let s = S.create ~telemetry:sink fbase in
        let n =
          (S.summary s Ctx.Base_to_opt).total_points + (S.summary s Ctx.Opt_to_base).total_points
        in
        if n <= 0 then fail "kernel %s swept 0 points" e.benchmark;
        acc + n)
      0 entries2 fbases2
  in
  let path = Filename.temp_file "osr_trace_smoke" ".json" in
  Telemetry.write_chrome_trace sink path;
  let contents = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  (match J.parse contents with
  | Error e -> fail "trace JSON unparseable: %s" e
  | Ok json -> (
      match J.member "traceEvents" json with
      | Some (J.Arr []) -> fail "trace has no events"
      | Some (J.Arr events) ->
          List.iter
            (fun ev ->
              match (J.member "ph" ev, J.member "name" ev, J.member "ts" ev, J.member "dur" ev)
              with
              | Some (J.Str "X"), Some (J.Str _), Some (J.Num ts), Some (J.Num dur) ->
                  if ts < 0.0 || dur < 0.0 then fail "negative ts/dur in trace event"
              | _ -> fail "trace event is not a complete \"X\" event")
            events
      | Some _ | None -> fail "trace JSON has no traceEvents array"));
  (match J.parse (Telemetry.counters_json ()) with
  | Error e -> fail "counters JSON unparseable: %s" e
  | Ok _ -> ());
  if Telemetry.nonzero_counters () = [] then fail "no counters bumped";
  Printf.printf "bench smoke OK: %d kernels, %d points, %d trace events, %d nonzero counters\n"
    (List.length entries2) points
    (List.length (Telemetry.trace_events sink))
    (List.length (Telemetry.nonzero_counters ()))

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablate () =
  let configs =
    [
      ("full", R.default_config);
      ("no constant-phi", { R.default_config with constant_phi = false });
      ("no replace-aliases", { R.default_config with use_aliases = false });
      ("no gating", { R.default_config with gating = false });
      ("none", { R.constant_phi = false; use_aliases = false; gating = false });
    ]
  in
  let rows =
    List.concat_map
      (fun ((e : Corpus.Kernels.entry), session) ->
        List.map
          (fun (cname, config) ->
            let s = F.analyze ~config (S.ctx session Ctx.Base_to_opt) in
            let b = F.analyze ~config (S.ctx session Ctx.Opt_to_base) in
            let pct n total = 100.0 *. float_of_int n /. float_of_int (max 1 total) in
            [
              e.benchmark;
              cname;
              Report.fmt_float ~digits:1 (pct s.live_ok s.total_points);
              Report.fmt_float ~digits:1 (pct s.avail_ok s.total_points);
              Report.fmt_float ~digits:1 (pct b.live_ok b.total_points);
              Report.fmt_float ~digits:1 (pct b.avail_ok b.total_points);
            ])
          configs)
      (List.filteri (fun i _ -> i < 6) (Lazy.force kernels))
  in
  print_string
    (Report.table
       ~title:
         "Ablation - OSR feasibility (% of points) with reconstruction features\n\
          disabled (fwd = fbase->fopt, bwd = fopt->fbase)"
       ~header:[ "benchmark"; "config"; "fwd live"; "fwd avail"; "bwd live"; "bwd avail" ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe [table1|table2|fig7|fig8|table3|table4|fig9|table5|\n\
    \       ablate|perf-par|smoke|all]";
  exit 2

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match cmd with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "fig7" -> fig7 ()
  | "fig8" -> fig8 ()
  | "table3" -> table3 ()
  | "table4" -> table4 ()
  | "fig9" -> fig9 ()
  | "table5" -> table5 ()
  | "ablate" -> ablate ()
  | "perf-par" -> parallel_perf ()
  | "smoke" -> smoke ()
  | "all" ->
      table1 ();
      table2 ();
      fig7 ();
      fig8 ();
      table3 ();
      table4 ();
      fig9 ();
      table5 ();
      ablate ()
  | _ -> usage ()
