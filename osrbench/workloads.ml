(** The four workloads.  Each one's set-up takes the seed and returns the
    operation function: [op c i] performs operation [i], whose inputs
    depend only on the seed and [i].  Inside an operation, the part timed
    as its latency calls the layers' public entry points and nothing else;
    the correctness checks run after it, outside the timed region.

    Workloads never use a [Parallel] pool, and pass the null [Telemetry]
    sink except in the traced phase, where a live one feeds the per-pass
    split of [Pass_manager.apply]. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module CM = Passes.Code_mapper
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility
module R = Osrir.Reconstruct_ir
module Rt = Osrir.Osr_runtime.Compiled
module Interp = Tinyvm.Interp
module Eng = Tinyvm.Engine.Compiled
module E = Debuginfo.Endangered

type ctx = {
  tr : Trace.t;  (** {!Trace.null} outside the traced phase *)
  acc : Acc.t;
}

(* Why each workload exists is recorded in BENCHMARK.json. *)
type spec = {
  name : string;
  batch : int;  (** the fixed work every run completes: operations [0 .. batch-1] *)
  setup : seed:int -> ctx -> int -> unit;
}

let span c = Trace.span c.tr

(* Time [f] as one operation from outside (seconds of {!Trace.now}), under
   the root span its layer spans hang from. *)
let timed (c : ctx) (f : unit -> 'a) : 'a * float =
  let t0 = Trace.now () in
  let v = span c "op" f in
  (v, Trace.now () -. t0)

(* Record [dt] seconds under [key] (pooled) and [key@stratum], the input
   class the operation was drawn from (see {!Acc.strata}). *)
let sample (c : ctx) ~(stratum : int) (key : string) (dt : float) : unit =
  Acc.sample c.acc key (dt *. 1000.0);
  Acc.sample c.acc (Printf.sprintf "%s@%d" key stratum) (dt *. 1000.0)

(* An operation's latency, which is also the time of its work except in
   osr-fire (where the work is the whole activation). *)
let record_op ?(work = true) (c : ctx) ~(stratum : int) (dt : float) : unit =
  sample c ~stratum "op_ms" dt;
  if work then sample c ~stratum "work_ms" dt

let actions (r : P.apply_result) : int =
  let n = CM.counts r.mapper in
  n.add + n.delete + n.hoist + n.sink + n.replace

(* In the traced phase a live sink per call times each pass (and the
   verifier) through the pipeline's own spans; their totals become the
   [passes.<name>] split of [passes.apply]. *)
let apply (c : ctx) (f : Ir.func) : P.apply_result =
  let tel = if c.tr.Trace.on then Telemetry.create () else Telemetry.null in
  let r = span c "passes.apply" (fun () -> P.apply ~telemetry:tel f) in
  List.iter
    (fun (name, calls, total_s, self_s) ->
      Trace.add_self c.tr ("passes." ^ name) ~calls ~total_s ~self_s)
    (Telemetry.span_rows tel);
  r

(* Passes rolled back by the sandboxed pipeline leave a valid but
   unoptimized function, so they are invisible in the result.  For the
   fixed batch, replay the pipeline untimed under a private live sink and
   read the rollback counter. *)
let check_rollbacks (c : ctx) ~(op : int) (f : Ir.func) : unit =
  if op < c.acc.Acc.batch then begin
    let before = P.stat_rolled_back.Telemetry.value in
    ignore (P.apply ~telemetry:(Telemetry.create ()) f : P.apply_result);
    let n = P.stat_rolled_back.Telemetry.value - before in
    Acc.add c.acc ~op "passes.rolled_back" n;
    Acc.check c.acc ~op ~what:"no_rollback" (n = 0)
  end

let record_passes (c : ctx) ~(op : int) (r : P.apply_result) : unit =
  Acc.add c.acc ~op "passes.actions" (actions r);
  Acc.add c.acc ~op "passes.fopt_instrs" (Ir.instr_count r.fopt)

let engine_obs (res : (Interp.outcome, Interp.trap) result) : Interp.outcome option =
  match res with Ok o -> Some o | Error _ -> None

let matches_ref (c : ctx) ~(op : int) (res : Interp.outcome option) (want : Interp.outcome) :
    unit =
  Acc.check c.acc ~op ~what:"reference"
    (match res with Some o -> Prep.same_obs o want | None -> false)

(* ------------------------------------------------------------------ *)
(* kernels-prep                                                         *)
(* ------------------------------------------------------------------ *)

let kernels_prep ~(seed : int) : ctx -> int -> unit =
  let ks = Prep.kernels ~seed in
  let pick = Prep.cycle ~seed ~salt:2 (Array.length ks) in
  (* Per kernel, what its first preparation produced: every later round
     must reproduce it exactly. *)
  let first = Hashtbl.create 16 in
  fun c i ->
    let ki = pick i in
    let k = ks.(ki) in
    let (r, sf, sb), dt =
      timed c (fun () ->
          let fbase, _ = span c "corpus.lower" (fun () -> Corpus.Dsl.to_fbase k.entry.kernel) in
          let r = apply c fbase in
          let fwd, bwd =
            span c "osr_ctx.make" (fun () ->
                Ctx.make_pair ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper ())
          in
          let sf = span c "feasibility.fwd" (fun () -> F.analyze fwd) in
          let sb = span c "feasibility.bwd" (fun () -> F.analyze bwd) in
          (r, sf, sb))
    in
    record_op c ~stratum:ki dt;
    let points = sf.total_points + sb.total_points in
    Acc.add c.acc ~op:i "work" points;
    Acc.add c.acc ~op:i "feasibility.points" points;
    Acc.add c.acc ~op:i "feasibility.live" (sf.live_ok + sb.live_ok);
    Acc.add c.acc ~op:i "feasibility.avail" (sf.avail_ok + sb.avail_ok);
    record_passes c ~op:i r;
    (* Checks: both versions against the reference on a seeded input, sane
       and repeatable summaries, no rolled-back pass. *)
    let d = Random.State.int (Prep.rng seed 3 i) Prep.data_seeds in
    List.iter
      (fun f -> matches_ref c ~op:i (engine_obs (Eng.run ~fuel:Prep.fuel f ~args:k.args.(d))) k.refs.(d))
      [ r.fbase; r.fopt ];
    let sane (s : F.summary) =
      s.empty <= s.live_ok && s.live_ok <= s.avail_ok && s.avail_ok <= s.total_points
      && s.total_points = List.length s.reports
    in
    Acc.check c.acc ~op:i ~what:"summary" (sane sf && sane sb);
    let shape =
      (Ir.func_to_string r.fopt, actions r, (sf.empty, sf.live_ok, sf.avail_ok, sf.total_points),
       (sb.empty, sb.live_ok, sb.avail_ok, sb.total_points))
    in
    (match Hashtbl.find_opt first ki with
    | None -> Hashtbl.replace first ki shape
    | Some s0 -> Acc.check c.acc ~op:i ~what:"repeat" (s0 = shape));
    check_rollbacks c ~op:i r.fbase

(* ------------------------------------------------------------------ *)
(* study-debug                                                          *)
(* ------------------------------------------------------------------ *)

(* Recovery check of test/suite_debuginfo.ml: stop fopt at the breakpoint
   and fbase at the source location (first arrival each, reference
   interpreter), evaluate the recovery plan against the fopt frame, and
   compare with the carrier's value in the fbase frame. *)
let check_recovery (c : ctx) ~(op : int) (bwd : Ctx.t) (r : P.apply_result) (args : int list)
    ((p : E.point_report), (v : E.var_status)) : unit =
  let om = Interp.run_to_point ~fuel:Prep.fuel (Interp.create r.fopt ~args) ~point:p.opt_point in
  let bm = Interp.run_to_point ~fuel:Prep.fuel (Interp.create r.fbase ~args) ~point:p.base_point in
  match (om, bm) with
  | Some om, Some bm -> (
      match E.recovery_plan bwd R.Avail ~opt_point:p.opt_point ~base_point:p.base_point v.carrier with
      | None -> Acc.check c.acc ~op ~what:"recovery" false
      | Some plan -> (
          match R.eval_plan plan ~src_frame:om.frame ~memory:om.memory with
          | Error _ -> Acc.check c.acc ~op ~what:"recovery" false
          | Ok env -> (
              match (Hashtbl.find_opt env v.carrier, Hashtbl.find_opt bm.frame v.carrier) with
              | Some got, Some want -> Acc.check c.acc ~op ~what:"recovery" (got = want)
              | None, _ -> Acc.check c.acc ~op ~what:"recovery" false
              | Some _, None ->
                  (* the carrier has not executed yet on this input *)
                  Acc.add c.acc ~op "recovery.unbound" 1)))
  | _ -> Acc.add c.acc ~op "recovery.unreached" 1

let recovery_samples = 4
let study_batch = 50

let study_debug ~(seed : int) : ctx -> int -> unit =
  let pop = Prep.study_population in
  let pick = Prep.cycle ~seed ~salt:5 (Array.length pop) in
  let args_of i =
    let st = Prep.rng seed 6 i in
    [ Random.State.int st 201 - 100; Random.State.int st 201 - 100 ]
  in
  (* The alloca form of operation [i]'s function, [None] when the rebuilt
     kernel does not promote to the generator's fbase. *)
  let raw_of i =
    let prof, idx = pop.(pick i) in
    let k = Prep.study_kernel prof idx in
    let fb, _ = Corpus.Dsl.to_fbase k in
    let sf = Corpus.Spec_c.gen_function prof idx in
    if Ir.func_to_string fb = Ir.func_to_string sf.fbase then Some (fst (Corpus.Dsl.lower k))
    else None
  in
  let reference i = Option.map (fun raw -> Prep.reference raw (args_of i)) (raw_of i) in
  (* References of the fixed batch are made here; later operations make
     theirs in the untimed check. *)
  let batch_refs = Array.init study_batch reference in
  let reference i = if i < study_batch then batch_refs.(i) else reference i in
  fun c i ->
    let prof, idx = pop.(pick i) in
    let (r, rep), dt =
      timed c (fun () ->
          let sf = span c "corpus.lower" (fun () -> Corpus.Spec_c.gen_function prof idx) in
          let r = apply c sf.fbase in
          let rep =
            span c "endangered.analyze" (fun () ->
                E.analyze_function ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper
                  ~user_vars:sf.dbg.user_vars ~source_points:sf.dbg.source_points)
          in
          (r, rep))
    in
    record_op c ~stratum:(pick i) dt;
    let points = List.length rep.points in
    Acc.add c.acc ~op:i "work" points;
    record_passes c ~op:i r;
    let vars = List.concat_map (fun (p : E.point_report) -> List.map (fun v -> (p, v)) p.vars) rep.points in
    let endangered = List.filter (fun (_, (v : E.var_status)) -> v.endangered) vars in
    let recoverable = List.filter (fun (_, (v : E.var_status)) -> v.recoverable_avail) endangered in
    Acc.add c.acc ~op:i "endangered.points" points;
    Acc.add c.acc ~op:i "endangered.vars" (List.length vars);
    Acc.add c.acc ~op:i "endangered.vars_endangered" (List.length endangered);
    Acc.add c.acc ~op:i "endangered.recoverable_avail" (List.length recoverable);
    (* Checks: fopt against the alloca-form reference on a seeded (x, y),
       and a seeded sample of recoverable variables recovered for real. *)
    let args = args_of i in
    let want = reference i in
    Acc.check c.acc ~op:i ~what:"study_kernel" (want <> None);
    Option.iter (matches_ref c ~op:i (engine_obs (Interp.run ~fuel:Prep.fuel r.fopt ~args))) want;
    (match recoverable with
    | [] -> ()
    | _ ->
        let bwd = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Opt_to_base in
        let arr = Array.of_list recoverable in
        let n = Array.length arr in
        let order = Prep.shuffle (Prep.rng seed 11 i) n in
        for j = 0 to min recovery_samples n - 1 do
          check_recovery c ~op:i bwd r args arr.(order.(j))
        done);
    check_rollbacks c ~op:i r.fbase

(* ------------------------------------------------------------------ *)
(* steady-run                                                           *)
(* ------------------------------------------------------------------ *)

let never (_ : Eng.machine) = false
let always (_ : Eng.machine) = true

(* One activation of [f] in the steady state: compile, then run with every
   source point of one direction armed behind a guard that never fires.
   Even operations run fbase (fwd points), odd ones fopt (bwd points) on
   the same (kernel, data seed) draw. *)
let steady_run ~(seed : int) : ctx -> int -> unit =
  let vs = Array.map Prep.compile_kernel (Prep.kernels ~seed) in
  let pick = Prep.cycle ~seed ~salt:7 (Array.length vs) in
  (* Sites per (kernel, direction); the guards never fire, so one
     continuation per direction (at its first feasible point) serves every
     site, generated here in set-up. *)
  let sites =
    Array.map
      (fun (v : Prep.compiled) ->
        Array.map
          (fun (d : Prep.direction) ->
            let f = d.feasible.(0) in
            let cont = Osrir.Contfun.generate d.dst ~landing:f.landing f.plan in
            List.map (fun at -> { Osrir.Osr_runtime.at; guard = never; cont }) d.points)
          v.dirs)
      vs
  in
  fun c i ->
    let pair = i / 2 and di = i mod 2 in
    let ki = pick pair in
    let v = vs.(ki) in
    let d = Random.State.int (Prep.rng seed 8 pair) Prep.data_seeds in
    let args = v.k.args.(d) in
    let dir = v.dirs.(di) in
    let (prog, (res, out)), dt =
      timed c (fun () ->
          let prog = span c "tinyvm.compile" (fun () -> Tinyvm.Compile.compile dir.src) in
          let m = Eng.of_program prog ~args in
          (prog, span c "osr_runtime.run" (fun () -> Rt.run_with_osr ~fuel:Prep.fuel m sites.(ki).(di))))
    in
    record_op c ~stratum:((2 * ki) + di) dt;
    let o = engine_obs res in
    let steps = match o with Some o -> o.steps | None -> 0 in
    Acc.add c.acc ~op:i "work" steps;
    Acc.add c.acc ~op:i "tinyvm.steps" steps;
    Acc.add c.acc ~op:i ("steps." ^ dir.dname) steps;
    matches_ref c ~op:i o v.k.refs.(d);
    Acc.check c.acc ~op:i ~what:"no_transition" (out.transition = None && out.aborted = []);
    if c.tr.Trace.on then begin
      (* The same activation unarmed, for the armed-dispatch overhead. *)
      let m = Eng.of_program prog ~args in
      let plain = span c "tinyvm.run_unarmed" (fun () -> Eng.run_machine ~fuel:Prep.fuel m) in
      let po = engine_obs plain in
      Acc.add c.acc ~op:i "unarmed_steps" (match po with Some o -> o.steps | None -> 0);
      matches_ref c ~op:i po v.k.refs.(d)
    end

(* ------------------------------------------------------------------ *)
(* osr-fire                                                             *)
(* ------------------------------------------------------------------ *)

(* One activation firing exactly one transition: run the source to the
   drawn arrival at the drawn point, generate the continuation, fire, and
   finish in the continuation. *)
let osr_fire ~(seed : int) : ctx -> int -> unit =
  let vs = Array.map Prep.compile_kernel (Prep.kernels ~seed) in
  (* Per (kernel, direction, data seed): the feasible points the source
     reaches on that input, with their arrival counts. *)
  let reached =
    Array.map
      (fun (v : Prep.compiled) ->
        Array.map
          (fun (d : Prep.direction) ->
            Array.map
              (fun args ->
                let counts = Prep.arrivals d.src args in
                Array.to_list d.feasible
                |> List.filter_map (fun (f : Prep.feasible) ->
                       let n = if f.point < Array.length counts then counts.(f.point) else 0 in
                       if n > 0 then Some (f, n) else None)
                |> Array.of_list)
              v.k.args)
          v.dirs)
      vs
  in
  let strata = 2 * Array.length vs in
  let pick = Prep.cycle ~seed ~salt:9 strata in
  fun c i ->
    let s = pick i in
    let ki = s / 2 and di = s mod 2 in
    let v = vs.(ki) in
    let dir = v.dirs.(di) in
    let st = Prep.rng seed 10 i in
    let d = Random.State.int st Prep.data_seeds in
    let cands = reached.(ki).(di).(d) in
    if Array.length cands = 0 then Acc.fail c.acc ~op:i "no reached feasible point"
    else begin
      let f, n = cands.(Random.State.int st (Array.length cands)) in
      let arrival = Random.State.int st n in
      let args = v.k.args.(d) in
      let tr_s = ref 0.0 in
      let result, dt =
        timed c (fun () ->
            let prog = span c "tinyvm.compile" (fun () -> Tinyvm.Compile.compile dir.src) in
            let m = Eng.of_program prog ~args in
            match
              span c "tinyvm.run" (fun () ->
                  Eng.run_to_point ~fuel:Prep.fuel ~skip:arrival m ~point:f.point)
            with
            | None -> `Unreached
            | Some m -> (
                let t0 = Trace.now () in
                let cont =
                  span c "contfun.generate" (fun () -> Osrir.Contfun.generate dir.dst ~landing:f.landing f.plan)
                in
                let fired =
                  span c "osr_runtime.fire" (fun () ->
                      Rt.fire m { Osrir.Osr_runtime.at = f.point; guard = always; cont })
                in
                tr_s := Trace.now () -. t0;
                match fired with
                | Error e -> `Aborted e
                | Ok cm ->
                    let src_steps = Eng.steps m in
                    let rest = span c "tinyvm.run" (fun () -> Eng.run_machine ~fuel:Prep.fuel cm) in
                    `Committed (cont, m, src_steps, rest)))
      in
      sample c ~stratum:s "work_ms" dt;
      match result with
      | `Unreached -> Acc.fail c.acc ~op:i "drawn arrival not reached"
      | `Aborted e ->
          Acc.add c.acc ~op:i "osr_runtime.aborted" 1;
          Acc.fail c.acc ~op:i ("transition aborted: " ^ Tinyvm.Osr_error.to_string e)
      | `Committed (cont, m, src_steps, rest) ->
          record_op ~work:false c ~stratum:s !tr_s;
          Acc.add c.acc ~op:i "work" 1;
          Acc.add c.acc ~op:i "osr_runtime.committed" 1;
          Acc.add c.acc ~op:i "contfun.fto_instrs" (Ir.instr_count cont.Osrir.Contfun.fto);
          let o =
            Option.map
              (fun (o : Interp.outcome) ->
                {
                  o with
                  Interp.events = List.rev_append (Eng.events_rev m) o.events;
                  steps = src_steps + o.steps;
                })
              (engine_obs rest)
          in
          let steps = match o with Some o -> o.steps | None -> 0 in
          Acc.add c.acc ~op:i "tinyvm.steps" steps;
          matches_ref c ~op:i o v.k.refs.(d)
    end

let all : spec list =
  [
    { name = "kernels-prep"; batch = 24; setup = kernels_prep };
    { name = "study-debug"; batch = study_batch; setup = study_debug };
    { name = "steady-run"; batch = 48; setup = steady_run };
    { name = "osr-fire"; batch = 48; setup = osr_fire };
  ]

let find (name : string) : spec option = List.find_opt (fun s -> String.equal s.name name) all
