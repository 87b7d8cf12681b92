open Import

(** The pass manager: implements the paper's [apply] (Sections 4.2 and
    5.4) at the IR level — clone the function, run an optimization
    pipeline over the clone with a shared CodeMapper recording every
    primitive action, verify SSA after each pass, and hand back everything
    the OSR layer needs.

    The verifier is the one producer of the analyses a pass reads: each
    verification builds the function index and dominators from the IR it
    checks, and the next pass receives them in a fresh
    {!Analysis_manager.t}.  Nothing is cached across a pass, so a pass
    declares nothing about what it keeps valid. *)

type pass = {
  pname : string;
  run : mapper:Code_mapper.t -> am:Analysis_manager.t -> Ir.func -> bool;
      (** did the pass change the function? *)
}

let constprop : pass = { pname = "CP"; run = Constprop.run }
let sccp : pass = { pname = "SCCP"; run = Sccp.run }
let cse : pass = { pname = "CSE"; run = Cse.run }
let adce : pass = { pname = "ADCE"; run = Adce.run }
let loop_canon : pass = { pname = "LC"; run = Loop_canon.run }
let lcssa : pass = { pname = "LCSSA"; run = Lcssa.run }
let licm : pass = { pname = "LICM"; run = Licm.run }
let sink : pass = { pname = "Sink"; run = Sink.run }

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

exception Verification_failed of string * string
(** culprit — the pass name, or ["input"] when [apply]'s argument itself
    fails verification — and the verifier's errors *)

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
    The SSA verifier checks the clone before the first pass and after
    every pass, and each pass reads the index and dominators of the
    verification before it.  [f] must verify, or {!Verification_failed}
    names ["input"].  With [sandbox] (the default), each pass runs
    transactionally: a verification failure rolls the function {e and}
    the mapper history back to their pre-pass state (verifying the
    restored copy again, for the next pass's analyses), emits a remark,
    bumps [pass.rolled_back], and the pipeline continues with the
    remaining passes — a miscompiling pass degrades to a no-op instead of
    killing the compilation.  With [sandbox:false] a failure raises
    {!Verification_failed} naming the culprit (the debugging mode).  With
    a live [telemetry] sink each pass runs under a span named after it
    (the [-time-passes] rows), the verifier under ["verify"], and the
    mapper/analysis-manager statistics accumulate. *)
let apply ?(pipeline = standard_pipeline) ?(sandbox = true) ?(telemetry = Telemetry.null)
    (f : Ir.func) : apply_result =
  let fopt = Ir.clone_func f in
  let mapper = Code_mapper.create ~telemetry () in
  let verify () =
    match
      Telemetry.with_span telemetry ~cat:"verify" "verify" (fun () -> Verifier.verify fopt)
    with
    | Ok (index, dom) -> Ok (Analysis_manager.create ~telemetry index dom)
    | Error es -> Error (Fmt.str "%a" (Fmt.list ~sep:Fmt.cut Verifier.pp_error) es)
  in
  let verify_exn culprit =
    match verify () with
    | Ok am -> am
    | Error details -> raise (Verification_failed (culprit, details))
  in
  let am = ref (verify_exn "input") in
  let per_pass = ref [] in
  List.iter
    (fun (p : pass) ->
      let before = Code_mapper.counts mapper in
      let pre =
        if sandbox then Some (Ir.clone_func fopt, Code_mapper.snapshot mapper) else None
      in
      ignore
        (Telemetry.with_span telemetry ~cat:"pass" p.pname (fun () -> p.run ~mapper ~am:!am fopt)
          : bool);
      (match verify () with
      | Ok next -> am := next
      | Error details -> (
          match pre with
          | Some (pre_ir, pre_mapper) ->
              restore_func fopt ~from_:pre_ir;
              Code_mapper.restore mapper pre_mapper;
              am := verify_exn p.pname;
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
