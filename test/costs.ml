(** The deterministic costs of the 12 paper kernels, one metric per line:
    [name value].  [dune runtest] diffs this program's output against the
    committed [costs.expected]; [make costs] rewrites that file.  A change
    that moves a line explains the move in CHANGES.md.

    - [steps.<kernel>.fbase|fopt]: interpreter steps at the kernel's
      default arguments;
    - [points.<kernel>.fwd|bwd.live|avail|infeasible]: sweep points
      feasible with the live variant (empty compensation included), only
      with the avail variant, and with neither;
    - [actions.<pass>.<kind>]: CodeMapper actions each pass of the
      standard pipeline recorded, summed over the kernels;
    - [am.*]: the analysis-manager counters of the standard pipeline over
      the kernels. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module CM = Passes.Code_mapper
module S = Osrir.Session
module Ctx = Osrir.Osr_ctx

let line name value = Printf.printf "%s %d\n" name value

let steps (f : Ir.func) (args : int list) : int =
  match Tinyvm.Interp.run f ~args with
  | Ok o -> o.steps
  | Error t -> Fmt.failwith "%s traps: %a" f.Ir.fname Tinyvm.Interp.pp_trap t

let () =
  Telemetry.reset_counters ();
  let sink = Telemetry.create () in
  let runs =
    List.map
      (fun (e : Corpus.Kernels.entry) ->
        let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
        (e, P.apply ~telemetry:sink fbase))
      Corpus.Kernels.all
  in
  let am =
    List.filter (fun (c : Telemetry.counter) -> c.group = "am") (Telemetry.counters ())
  in
  List.iter
    (fun ((e : Corpus.Kernels.entry), (r : P.apply_result)) ->
      line (Printf.sprintf "steps.%s.fbase" e.benchmark) (steps r.fbase e.default_args);
      line (Printf.sprintf "steps.%s.fopt" e.benchmark) (steps r.fopt e.default_args))
    runs;
  List.iter
    (fun ((e : Corpus.Kernels.entry), r) ->
      let s = S.of_result r in
      List.iter
        (fun (dir, dname) ->
          let (m : Osrir.Feasibility.summary) = S.summary s dir in
          let point kind n = line (Printf.sprintf "points.%s.%s.%s" e.benchmark dname kind) n in
          point "live" m.live_ok;
          point "avail" (m.avail_ok - m.live_ok);
          point "infeasible" (m.total_points - m.avail_ok))
        [ (Ctx.Base_to_opt, "fwd"); (Ctx.Opt_to_base, "bwd") ])
    runs;
  List.iter
    (fun (p : P.pass) ->
      let sum field =
        List.fold_left
          (fun acc (_, (r : P.apply_result)) -> acc + field (List.assoc p.pname r.per_pass))
          0 runs
      in
      let kind name field = line (Printf.sprintf "actions.%s.%s" p.pname name) (sum field) in
      kind "add" (fun (c : CM.counts) -> c.add);
      kind "delete" (fun (c : CM.counts) -> c.delete);
      kind "hoist" (fun (c : CM.counts) -> c.hoist);
      kind "sink" (fun (c : CM.counts) -> c.sink);
      kind "replace" (fun (c : CM.counts) -> c.replace))
    P.standard_pipeline;
  List.iter
    (fun (c : Telemetry.counter) -> line (Printf.sprintf "am.%s" c.cname) c.value)
    am
