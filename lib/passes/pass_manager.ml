open Import

(** The pass manager: implements the paper's [apply] (Sections 4.2 and
    5.4) at the IR level — clone the function, run an optimization
    pipeline over the clone with a shared CodeMapper recording every
    primitive action, verify SSA after each pass, and hand back everything
    the OSR layer needs.

    Analyses (dominators, liveness, loops, the function index) are owned
    by an {!Analysis_manager.t} shared across the pipeline: each pass
    declares which analyses it preserves {e when it changes the function},
    and the manager invalidates the rest; a pass that reports no change
    preserves everything. *)

type pass = {
  pname : string;
  run : ?mapper:Code_mapper.t -> ?am:Analysis_manager.t -> Ir.func -> bool;
  instrumented : bool;
      (** does this pass record CodeMapper actions (Table 1's pass set)? *)
  preserves : Analysis_manager.analysis list;
      (** analyses still valid after this pass changed the function *)
}

let mem2reg : pass =
  {
    pname = "mem2reg";
    run = (fun ?mapper:_ ?am f -> Mem2reg.run ?am f);
    instrumented = false;
    preserves = Analysis_manager.cfg_preserving;
  }

let constprop : pass =
  { pname = "CP"; run = Constprop.run; instrumented = true;
    preserves = Analysis_manager.cfg_preserving }

(* SCCP folds branches and deletes unreachable blocks: nothing survives. *)
let sccp : pass = { pname = "SCCP"; run = Sccp.run; instrumented = true; preserves = [] }

let cse : pass =
  { pname = "CSE"; run = Cse.run; instrumented = true;
    preserves = Analysis_manager.cfg_preserving }

let adce : pass =
  { pname = "ADCE"; run = Adce.run; instrumented = true;
    preserves = Analysis_manager.cfg_preserving }

(* LoopCanon inserts preheader blocks and rewires edges: nothing survives. *)
let loop_canon : pass =
  { pname = "LC"; run = Loop_canon.run; instrumented = true; preserves = [] }

let lcssa : pass =
  { pname = "LCSSA"; run = Lcssa.run; instrumented = true;
    preserves = Analysis_manager.cfg_preserving }

let licm : pass =
  { pname = "LICM"; run = Licm.run; instrumented = true;
    preserves = Analysis_manager.cfg_preserving }

let sink : pass =
  { pname = "Sink"; run = Sink.run; instrumented = true;
    preserves = Analysis_manager.cfg_preserving }

(** The optimization pipeline of Section 5.4 (ADCE, CP, CSE, LICM, SCCP,
    Sink, plus the LC and LCSSA utility passes LICM requires). *)
let standard_pipeline : pass list =
  [ constprop; sccp; cse; loop_canon; lcssa; licm; sink; adce ]

type apply_result = {
  fbase : Ir.func;  (** the input function, untouched *)
  fopt : Ir.func;  (** the optimized clone *)
  mapper : Code_mapper.t;  (** action history across the whole pipeline *)
  per_pass : (string * Code_mapper.counts) list;  (** actions recorded by each pass *)
}

exception Verification_failed of string * string  (** pass name, details *)

(* Sandboxing counter: passes undone after a failed post-pass
   verification. *)
let stat_rolled_back =
  Telemetry.counter ~group:"pass" "rolled_back"
    ~desc:"passes rolled back after failing post-pass verification"

(* Overwrite [dst]'s mutable body with [src]'s (a pristine clone taken
   before the pass ran); [fname] and [params] are immutable and no pass
   changes them. *)
let restore_func (dst : Ir.func) ~(from_ : Ir.func) : unit =
  dst.Ir.blocks <- from_.Ir.blocks;
  dst.Ir.next_id <- from_.Ir.next_id;
  dst.Ir.next_reg <- from_.Ir.next_reg

(** Clone [f] and optimize the clone with [pipeline], recording actions.
    The SSA verifier runs after every pass.  With [sandbox] (the default),
    each pass runs transactionally: a verification failure rolls the
    function {e and} the mapper history back to their pre-pass state,
    emits a remark, bumps [pass.rolled_back], and the pipeline continues
    with the remaining passes — a miscompiling pass degrades to a no-op
    instead of killing the compilation.  With [sandbox:false] a failure
    raises {!Verification_failed} naming the culprit (the debugging mode).
    With a live [telemetry] sink each pass runs under a span named after
    it (the [-time-passes] rows), the verifier under ["verify"], and the
    mapper/analysis-manager statistics accumulate. *)
let apply ?(pipeline = standard_pipeline) ?(sandbox = true) ?(telemetry = Telemetry.null)
    (f : Ir.func) : apply_result =
  let fopt = Ir.clone_func f in
  let mapper = Code_mapper.create ~telemetry () in
  let am = Analysis_manager.create ~telemetry () in
  let per_pass = ref [] in
  List.iter
    (fun (p : pass) ->
      let before = Code_mapper.counts mapper in
      let pre =
        if sandbox then Some (Ir.clone_func fopt, Code_mapper.snapshot mapper) else None
      in
      let changed =
        Telemetry.with_span telemetry ~cat:"pass" p.pname (fun () -> p.run ~mapper ~am fopt)
      in
      if changed then Analysis_manager.invalidate ~preserved:p.preserves am;
      (match
         Telemetry.with_span telemetry ~cat:"verify" "verify" (fun () -> Verifier.verify fopt)
       with
      | Ok () -> ()
      | Error es -> (
          let details = Fmt.str "%a" (Fmt.list ~sep:Fmt.cut Verifier.pp_error) es in
          match pre with
          | Some (pre_ir, pre_mapper) ->
              restore_func fopt ~from_:pre_ir;
              Code_mapper.restore mapper pre_mapper;
              (* The restored IR matches no cached analysis of the broken
                 one. *)
              Analysis_manager.invalidate ~preserved:[] am;
              Telemetry.bump telemetry stat_rolled_back;
              Telemetry.remark telemetry ~pass:p.pname ~func:fopt.Ir.fname (fun () ->
                  "pass rolled back: post-pass verification failed: " ^ details)
          | None -> raise (Verification_failed (p.pname, details))));
      (* Computed after a possible rollback, so a rolled-back pass reports
         zero actions. *)
      let after = Code_mapper.counts mapper in
      let delta : Code_mapper.counts =
        {
          add = after.add - before.add;
          delete = after.delete - before.delete;
          hoist = after.hoist - before.hoist;
          sink = after.sink - before.sink;
          replace = after.replace - before.replace;
        }
      in
      per_pass := (p.pname, delta) :: !per_pass)
    pipeline;
  { fbase = f; fopt; mapper; per_pass = List.rev !per_pass }

(** {!apply} over a whole corpus, one function per task across [pool]'s
    domains.  Each task already owns everything mutable — the clone, its
    CodeMapper, its {!Analysis_manager} — so the only sharing to manage is
    telemetry, which each task gets as a private {!Telemetry.fork}, joined
    back in input order.  Counters, remarks and per-pass span aggregates
    are therefore byte-equal to a sequential run's; results come back in
    input order.  Without a pool this is exactly [List.map apply]. *)
let apply_corpus ?(pool : Parallel.Pool.t option) ?(telemetry = Telemetry.null)
    (fs : Ir.func list) : apply_result list =
  match pool with
  | None -> List.map (fun f -> apply ~telemetry f) fs
  | Some pool ->
      let arr = Array.of_list fs in
      let n = Array.length arr in
      let sinks = Array.init n (fun _ -> Telemetry.fork telemetry) in
      let results =
        Parallel.Pool.run pool ~chunk:1
          ~scratch:(fun () -> ())
          (fun () i -> apply ~telemetry:sinks.(i) arr.(i))
          n
      in
      Array.iter (Telemetry.join telemetry) sinks;
      Array.to_list results

(** Run mem2reg in place on a freshly built alloca-form function to obtain
    the paper's [fbase] (clang -O0 + mem2reg). *)
let to_fbase (f : Ir.func) : Ir.func =
  let f' = Ir.clone_func f in
  let _ : bool = Mem2reg.run f' in
  Verifier.verify_exn f';
  f'
