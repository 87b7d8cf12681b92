(** osrbench: the end-to-end and per-layer benchmark of the OSR pipeline.

    {v
    osrbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-file PATH]
    v}

    A run sets the workload up three times (the median is [setup_s]), then
    runs operations [0, 1, 2, ...] until it has done the workload's fixed
    batch and [S] seconds have passed.  With [--trace 1] the time is split:
    half untraced, then the same operation stream again with a span around
    every layer call; the per-layer metrics come from the traced half and
    the difference between the halves is the tracing overhead.

    Times are reference seconds: CPU time rescaled by a calibration loop
    timed alongside ({!Clock}).  Latency medians and throughputs are
    stratified by input class ({!Acc.strata}).  Every operation's output is
    checked against a reference (see {!Prep}); a failed check, trap,
    aborted transition or rolled-back pass fails the operation.  Text lines
    print every metric by name with unit and direction, the checks made and
    the determinism fingerprint (counts over the fixed batch, equal for
    equal seeds).  The last line of standard output is one JSON object:
    [{"correct", "attempted", "failed", "metrics"}], with the end-to-end
    metrics ([--trace 0]) or the per-layer metrics ([--trace 1]).

    Seeds 1 to 10 are the measuring seeds; seed 1001 is kept back for
    confirming a claimed gain on inputs not used while the change was
    written. *)

module W = Workloads

let usage () =
  prerr_endline
    ("usage: osrbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-file PATH]\n\
      workloads: "
    ^ String.concat ", " (List.map (fun (s : W.spec) -> s.name) W.all));
  exit 2

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  trace_file : string option;
}

let parse_args () : opts =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let trace_file = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--trace-file" :: v :: rest -> trace_file := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0.0 ->
      { workload; seed; seconds; trace; trace_file = !trace_file }
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Phases                                                               *)
(* ------------------------------------------------------------------ *)

let setups = 3

(* Set the workload up [setups] times; keep the last operation function. *)
let set_up (spec : W.spec) ~(seed : int) : (W.ctx -> int -> unit) * float =
  let times = Array.make setups 0.0 and op = ref None in
  for k = 0 to setups - 1 do
    Gc.full_major ();
    Clock.recalibrate ();
    let t0 = Trace.now () in
    op := Some (spec.setup ~seed);
    times.(k) <- Trace.now () -. t0
  done;
  (Option.get !op, Acc.median times)

let run_phase (op : W.ctx -> int -> unit) ~(batch : int) ~(seconds : float) ~(tr : Trace.t) :
    Acc.t =
  Gc.full_major ();
  let acc = Acc.create ~batch in
  let c = { W.tr; acc } in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < batch || Unix.gettimeofday () -. t0 < seconds do
    Clock.tick ();
    Trace.set_act tr !i;
    (try op c !i with e -> Acc.fail acc ~op:!i ("exception " ^ Printexc.to_string e));
    acc.ops <- acc.ops + 1;
    incr i
  done;
  acc

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                   *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let pct part whole = 100.0 *. ratio part whole

(* The contract metrics, identical keys on every workload.  The operation
   is a prepared function (kernels-prep, study-debug), an activation
   (steady-run) or a transition (osr-fire); the work is source points
   swept, breakpoint points reported, VM steps executed or transitions
   committed, per second of the operations that did it ("work_ms").  All
   three are stratified, see {!Acc.strata}. *)
let op_ms q acc = Acc.stratified_quantile acc "op_ms" q
let work_per_s acc = ratio (float_of_int (Acc.count acc "work")) (Acc.stratified_seconds acc "work_ms")

(* Plain quantile over all operations, for the text-only tail figures. *)
let pooled key q acc = Acc.percentile (Acc.samples acc key) q

let end_to_end ~setup_s ~top_heap_mb (acc : Acc.t) : (string * float * string) list =
  [
    ("setup_s", setup_s, "s");
    ("op_ms_p50", op_ms 0.5 acc, "ms");
    ("op_ms_p90", op_ms 0.9 acc, "ms");
    ("work_per_s", work_per_s acc, "1/s");
    ("top_heap_mb", top_heap_mb, "MB");
  ]

(* The issue's metric names, each with unit and direction; [None] = N/A on
   this workload. *)
let named (spec : W.spec) ~setup_s ~top_heap_mb (acc : Acc.t) :
    (string * float option * string * string) list =
  let w = spec.name in
  let on ws v = if List.mem w ws then Some v else None in
  let prep = [ "kernels-prep"; "study-debug" ] in
  let act q = if w = "osr-fire" then Acc.stratified_quantile acc "work_ms" q else op_ms q acc in
  let steps_per_s =
    if w = "osr-fire" then
      ratio (float_of_int (Acc.count acc "tinyvm.steps")) (Acc.stratified_seconds acc "work_ms")
    else work_per_s acc
  in
  let attempted = float_of_int acc.ops in
  [
    ("setup_s", Some setup_s, "s", "lower");
    ("prep_ms_p50", on prep (op_ms 0.5 acc), "ms", "lower");
    ("prep_ms_p90", on prep (op_ms 0.9 acc), "ms", "lower");
    ("points_per_s", on prep (work_per_s acc), "1/s", "higher");
    ("steps_per_s", on [ "steady-run"; "osr-fire" ] steps_per_s, "1/s", "higher");
    ("activation_ms_p50", on [ "steady-run"; "osr-fire" ] (act 0.5), "ms", "lower");
    ("activation_ms_p99", on [ "steady-run" ] (pooled "op_ms" 0.99 acc), "ms", "lower");
    ("transition_ms_p50", on [ "osr-fire" ] (op_ms 0.5 acc), "ms", "lower");
    ("transition_ms_p95", on [ "osr-fire" ] (pooled "op_ms" 0.95 acc), "ms", "lower");
    ("transitions_per_s", on [ "osr-fire" ] (work_per_s acc), "1/s", "higher");
    ( "fopt_step_ratio",
      on [ "steady-run" ]
        (ratio (float_of_int (Acc.batch_count acc "steps.bwd"))
           (float_of_int (Acc.batch_count acc "steps.fwd"))),
      "ratio", "lower" );
    ("top_heap_mb", Some top_heap_mb, "MB", "lower");
    ("fail_ratio", Some (ratio (float_of_int acc.failed) attempted), "ratio", "lower");
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (traced phase)                                     *)
(* ------------------------------------------------------------------ *)

let pass_names = [ "CP"; "SCCP"; "CSE"; "LC"; "LCSSA"; "LICM"; "Sink"; "ADCE"; "verify" ]

(* Spans whose self time is reported as a share of the traced operation
   time, with the per-layer metric name. *)
let share_spans =
  [
    ("corpus.lower", "corpus.lower_pct");
    ("passes.apply", "passes.apply_pct");
    ("osr_ctx.make", "osr_ctx.make_pct");
    ("feasibility.fwd", "feasibility.fwd_pct");
    ("feasibility.bwd", "feasibility.bwd_pct");
    ("contfun.generate", "contfun.generate_pct");
    ("osr_runtime.fire", "osr_runtime.fire_pct");
    ("osr_runtime.run", "osr_runtime.run_pct");
    ("tinyvm.compile", "tinyvm.compile_pct");
    ("tinyvm.run", "tinyvm.run_pct");
    ("endangered.analyze", "endangered.analyze_pct");
  ]

type layer_metric = {
  lname : string;
  value : float;
  unit_ : string;
  in_json : bool;
  na : bool;  (** the workload never calls the layer; the JSON value is 0 *)
}

let per_layer (spec : W.spec) (tr : Trace.t) (acc : Acc.t)
    ~(untraced : (string * float * string) list) ~(traced : (string * float * string) list) :
    layer_metric list =
  let steady = spec.name = "steady-run" in
  (* A layer is exercised when some span named after it ran. *)
  let used lname =
    match String.index_opt lname '.' with
    | None -> steady (* fopt_step_ratio *)
    | Some k ->
        let prefix = String.sub lname 0 (k + 1) in
        prefix = "trace."
        || Hashtbl.fold
             (fun name (a : Trace.agg) u -> u || (a.calls > 0 && String.starts_with ~prefix name))
             tr.aggs false
  in
  let m ?(json = true) ?(na = false) lname value unit_ =
    { lname; value; unit_; in_json = json; na = na || not (used lname) }
  in
  let op_s = match Trace.find tr "op" with Some a -> a.Trace.total_s | None -> 0.0 in
  let calls s = match Trace.find tr s with Some a -> a.Trace.calls | None -> 0 in
  let b_calls s = match Trace.find tr s with Some a -> a.Trace.b_calls | None -> 0 in
  let mean_ms s = 1000.0 *. ratio (Trace.self_s tr s) (float_of_int (calls s)) in
  let mwords_per_call s = ratio (Trace.batch_words tr s) (float_of_int (b_calls s)) /. 1e6 in
  let bc k = float_of_int (Acc.batch_count acc k) in
  let durations s =
    List.filter_map
      (fun (sp : Trace.span) -> if sp.name = s then Some (1000.0 *. (sp.t1 -. sp.t0)) else None)
      tr.spans
    |> Array.of_list
  in
  let pcts s q = let d = durations s in if Array.length d = 0 then 0.0 else Acc.percentile d q in
  let pass_self = List.map (fun p -> (p, Trace.self_s tr ("passes." ^ p))) pass_names in
  let applies = float_of_int (calls "passes.apply") in
  let vm_span = if steady then "tinyvm.run_unarmed" else "tinyvm.run" in
  let vm_steps = Acc.count acc (if steady then "unarmed_steps" else "tinyvm.steps") in
  let vm_b_steps = bc (if steady then "unarmed_steps" else "tinyvm.steps") in
  let overhead name =
    match (List.assoc_opt name (List.map (fun (n, v, _) -> (n, v)) untraced),
           List.assoc_opt name (List.map (fun (n, v, _) -> (n, v)) traced)) with
    | Some u, Some t -> 100.0 *. (ratio t u -. 1.0)
    | _ -> 0.0
  in
  List.map (fun (s, name) -> m name (pct (Trace.self_s tr s) op_s) "%") share_spans
  @ List.map (fun (p, self) -> m ("passes." ^ p ^ "_pct") (pct self op_s) "%") pass_self
  @ [
      m "passes.apply_mwords" (mwords_per_call "passes.apply") "Mwords";
      m "passes.actions" (bc "passes.actions") "count";
      m "passes.fopt_instrs" (bc "passes.fopt_instrs") "count";
      m "passes.rolled_back" (bc "passes.rolled_back") "count";
      m "feasibility.points" (bc "feasibility.points") "count";
      m "feasibility.words_per_point"
        (ratio (Trace.batch_words tr "feasibility.fwd" +. Trace.batch_words tr "feasibility.bwd")
           (bc "feasibility.points"))
        "words";
      m "feasibility.live_ratio" (ratio (bc "feasibility.live") (bc "feasibility.points")) "ratio";
      m "feasibility.avail_ratio" (ratio (bc "feasibility.avail") (bc "feasibility.points")) "ratio";
      m "contfun.generate_mwords" (mwords_per_call "contfun.generate") "Mwords";
      m "contfun.fto_instrs" (bc "contfun.fto_instrs") "count";
      m "osr_runtime.committed" (bc "osr_runtime.committed") "count";
      m "osr_runtime.aborted" (bc "osr_runtime.aborted") "count";
      m "osr_runtime.armed_overhead_pct" ~na:(not steady)
        (if steady then
           100.0 *. (ratio (Trace.self_s tr "osr_runtime.run") (Trace.self_s tr "tinyvm.run_unarmed") -. 1.0)
         else 0.0)
        "%";
      m "tinyvm.steps" (bc "tinyvm.steps") "count";
      m "tinyvm.steps_per_s" (ratio (float_of_int vm_steps) (Trace.self_s tr vm_span)) "1/s";
      m "tinyvm.words_per_step" (ratio (Trace.batch_words tr vm_span) vm_b_steps) "words";
      m "fopt_step_ratio" (ratio (bc "steps.bwd") (bc "steps.fwd")) "ratio";
      m "endangered.points" (bc "endangered.points") "count";
      m "endangered.vars_endangered" (bc "endangered.vars_endangered") "count";
      m "endangered.recoverable_avail_ratio"
        (ratio (bc "endangered.recoverable_avail") (bc "endangered.vars_endangered"))
        "ratio";
      m "endangered.mwords" (mwords_per_call "endangered.analyze") "Mwords";
      m "trace.overhead_pct" (overhead "op_ms_p50") "%";
    ]
  (* Text-only: times per call, and the overhead on every end-to-end
     metric. *)
  @ List.map
      (fun (s, name) -> m ~json:false name (mean_ms s) "ms")
      [
        ("corpus.lower", "corpus.lower_ms");
        ("passes.apply", "passes.apply_ms");
        ("osr_ctx.make", "osr_ctx.make_ms");
        ("feasibility.fwd", "feasibility.fwd_ms");
        ("feasibility.bwd", "feasibility.bwd_ms");
        ("osr_runtime.fire", "osr_runtime.fire_ms");
        ("tinyvm.compile", "tinyvm.compile_ms");
        ("endangered.analyze", "endangered.analyze_ms");
      ]
  @ List.map
      (fun (p, self) -> m ~json:false ("passes." ^ p ^ "_ms") (1000.0 *. ratio self applies) "ms")
      pass_self
  @ [
      m ~json:false "contfun.generate_ms_p50" (pcts "contfun.generate" 0.5) "ms";
      m ~json:false "contfun.generate_ms_p95" (pcts "contfun.generate" 0.95) "ms";
    ]
  @ List.map
      (fun (n, _, _) -> m ~json:false ("trace.overhead." ^ n ^ "_pct") (overhead n) "%")
      (List.filter (fun (n, _, _) -> n <> "setup_s" && n <> "top_heap_mb") untraced)

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_num (v : float) : string =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed (metrics : (string * float * string) list) : string =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
          metrics))

let print_named rows =
  List.iter
    (fun (n, v, u, better) ->
      match v with
      | Some v -> Printf.printf "metric %-22s %14.6g %-6s (%s is better)\n" n v u better
      | None -> Printf.printf "metric %-22s %14s\n" n "N/A")
    rows

let print_fingerprint label (fp : (string * int) list) =
  let text = String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fp) in
  Printf.printf "%s %s\n" label (Digest.to_hex (Digest.string text));
  List.iter (fun (k, v) -> Printf.printf "  count %-34s %d\n" k v) fp

let print_checks (acc : Acc.t) =
  List.iter
    (fun (k, v) ->
      if String.starts_with ~prefix:"check." k then
        Printf.printf "checks %-20s %d over all %d operations\n"
          (String.sub k 6 (String.length k - 6)) v acc.ops)
    (Hashtbl.fold (fun k r a -> (k, !r) :: a) acc.counts [] |> List.sort compare);
  List.iter (fun msg -> Printf.printf "FAILED %s\n" msg) (List.rev acc.messages)

let () =
  let o = parse_args () in
  let spec = match W.find o.workload with Some s -> s | None -> usage () in
  Printf.printf "osrbench workload=%s seed=%d seconds=%g trace=%d batch=%d\n%!" spec.name o.seed
    o.seconds (if o.trace then 1 else 0) spec.batch;
  let op, setup_s = set_up spec ~seed:o.seed in
  let untraced_s = if o.trace then o.seconds /. 2.0 else o.seconds in
  let acc = run_phase op ~batch:spec.batch ~seconds:untraced_s ~tr:Trace.null in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let e2e = end_to_end ~setup_s ~top_heap_mb acc in
  let n = Array.length (Acc.samples acc "op_ms") in
  Printf.printf "operations %d (batch %d), op latency samples %d, %s\n" acc.ops spec.batch n
    (if float_of_int n *. 0.1 >= 10.0 then "p90 has >= 10 samples beyond it"
     else "WARNING: fewer than 10 samples beyond p90");
  print_named (named spec ~setup_s ~top_heap_mb acc);
  Printf.printf "clock: calibration loop %.4f ms CPU (median of the last %d), %.4f reference s per CPU s\n"
    (1000.0 *. Clock.calibration_s ()) Clock.window !Clock.scale;
  print_checks acc;
  print_fingerprint "fingerprint" (Acc.fingerprint acc);
  let attempted, failed, metrics =
    if not o.trace then (acc.ops, acc.failed, e2e)
    else begin
      let tr = Trace.create ~batch:spec.batch in
      let tacc = run_phase op ~batch:spec.batch ~seconds:(o.seconds /. 2.0) ~tr in
      print_endline "traced phase:";
      print_checks tacc;
      (* Determinism self-check: the traced phase replays the same batch, so
         every count both phases record must agree.  Check counts may differ:
         checks that compare against earlier operations have more to compare
         with the second time. *)
      let fp = Acc.fingerprint acc and tfp = Acc.fingerprint tacc in
      let agree =
        List.for_all
          (fun (k, v) ->
            String.starts_with ~prefix:"check." k
            || match List.assoc_opt k tfp with Some v' -> v = v' | None -> true)
          fp
      in
      if not agree then print_endline "FAILED determinism: traced batch counts differ from untraced";
      let words =
        List.filter_map
          (fun (name, (a : Trace.agg)) ->
            if a.b_calls > 0 then Some ("words." ^ name, int_of_float a.b_self_w) else None)
          (Hashtbl.fold (fun k a l -> (k, a) :: l) tr.aggs [] |> List.sort compare)
      in
      print_fingerprint "traced-fingerprint" (tfp @ words);
      let layers =
        per_layer spec tr tacc ~untraced:e2e ~traced:(end_to_end ~setup_s ~top_heap_mb tacc)
      in
      List.iter
        (fun l ->
          if l.na then Printf.printf "layer %-36s %14s\n" l.lname "N/A"
          else Printf.printf "layer %-36s %14.6g %s\n" l.lname l.value l.unit_)
        layers;
      Option.iter (Trace.write tr) o.trace_file;
      ( acc.ops + tacc.ops,
        acc.failed + tacc.failed + (if agree then 0 else 1),
        List.filter_map (fun l -> if l.in_json then Some (l.lname, l.value, l.unit_) else None) layers )
    end
  in
  print_endline (result_line ~correct:(failed = 0) ~attempted ~failed metrics)
