(** Tests for the IR-level OSR machinery: point/value correspondence,
    reconstruct over SSA, feasibility analysis, continuation-function
    generation, and end-to-end OSR transitions through the TinyVM — the
    central soundness property of the whole system. *)

module Ir = Miniir.Ir
module Interp = Tinyvm.Interp
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module R = Osrir.Reconstruct_ir
module F = Osrir.Feasibility
module S = Osrir.Session
module Rt = Osrir.Osr_runtime

let parse = Miniir.Ir_parser.parse_func

(* The running example: a loop with a foldable constant, an invariant
   multiplication and some dead code — all four directions of optimization
   activity. *)
let example () =
  parse
    "func @f(%x, %y) {\n\
     entry:\n\
    \  %k = add 2, 3\n\
    \  %dead = mul %x, 99\n\
    \  br head\n\
     head:\n\
    \  %i = phi [entry: 0], [body: %i2]\n\
    \  %acc = phi [entry: 0], [body: %acc2]\n\
    \  %c = icmp slt %i, %x\n\
    \  cbr %c, body, exit\n\
     body:\n\
    \  %inv = mul %y, %k\n\
    \  %acc2 = add %acc, %inv\n\
    \  %i2 = add %i, 1\n\
    \  br head\n\
     exit:\n\
    \  ret %acc\n\
     }\n"

let directions = [ Ctx.Base_to_opt; Ctx.Opt_to_base ]

let run_int f args =
  match Interp.run f ~args with
  | Ok o -> o.Interp.ret
  | Error t -> Alcotest.failf "trap: %a" Interp.pp_trap t

(* -------------------- correspondence -------------------- *)

let test_landing_points () =
  let ctx = S.ctx (S.create (example ())) Ctx.Base_to_opt in
  (* Every source point must either land somewhere or be honestly
     unmapped. *)
  let points = Ctx.source_points ctx in
  Alcotest.(check bool) "nonempty universe" true (points <> []);
  List.iter
    (fun p ->
      match Ctx.landing_point ctx p with
      | Some landing ->
          Alcotest.(check bool) "landing exists in fopt" true
            (Hashtbl.mem ctx.dst.positions landing)
      | None -> ())
    points

let test_value_candidates () =
  let ctx = S.ctx (S.create (example ())) Ctx.Opt_to_base in
  (* %k was folded to 5 in fopt: reconstructing base's %k from the
     optimized frame must offer the constant. *)
  Alcotest.(check bool) "k resolves to constant 5" true
    (List.exists (fun v -> v = Ir.Const 5) (Ctx.source_candidates ctx "k"))

(* -------------------- feasibility -------------------- *)

let test_feasibility_shapes () =
  let s = S.create (example ()) in
  let fwd = S.summary s Ctx.Base_to_opt and bwd = S.summary s Ctx.Opt_to_base in
  Alcotest.(check bool) "forward: some points feasible" true (fwd.avail_ok > 0);
  Alcotest.(check bool) "backward: some points feasible" true (bwd.avail_ok > 0);
  Alcotest.(check bool) "live ⊆ avail (fwd)" true (fwd.live_ok <= fwd.avail_ok);
  Alcotest.(check bool) "live ⊆ avail (bwd)" true (bwd.live_ok <= bwd.avail_ok);
  Alcotest.(check bool) "empty ⊆ live (fwd)" true (fwd.empty <= fwd.live_ok)

(* -------------------- continuation functions -------------------- *)

let test_contfun_verifies () =
  let ts = S.transitions (S.create (example ())) Ctx.Base_to_opt in
  Alcotest.(check bool) "some continuations" true (ts <> []);
  List.iter
    (fun (t : S.transition) ->
      let cont = Osrir.Contfun.generate t.target ~landing:t.landing t.plan in
      match Miniir.Verifier.verify cont.fto with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "f'to for %d→%d does not verify: %a@.%s" t.point t.landing
            (Fmt.list ~sep:Fmt.cut Miniir.Verifier.pp_error)
            es
            (Ir.func_to_string cont.fto))
    ts

(* The continuation against references built from the unpromoted form:
   [generate] must equal the reference mem2reg applied to the
   [~promote:false] continuation, and its [live_in] the reference liveness
   at the landing. *)
let test_contfun_matches_reference () =
  let conts = Lazy.force Kernel_transitions.every_20th in
  Alcotest.(check bool) "some continuations" true (conts <> []);
  List.iter
    (fun (t : Kernel_transitions.transition) ->
      let cont = Osrir.Contfun.generate t.target ~landing:t.landing t.plan in
      let demoted = (Osrir.Contfun.generate ~promote:false t.target ~landing:t.landing t.plan).fto in
      ignore (Mem2reg_ref.run demoted : bool);
      Alcotest.(check string) (t.name ^ " fto") (Ir.func_to_string demoted)
        (Ir.func_to_string cont.fto);
      let want = Liveness_ref.live_at (Liveness_ref.compute cont.fto) t.landing in
      Alcotest.(check (list string)) (t.name ^ " live_in") want cont.live_in)
    conts

(* -------------------- the staged session -------------------- *)

(* The session against the chain it replaces: each direction's summary
   equals a sweep over a context of its own, and its transitions are
   exactly the reports with a landing and an avail plan, in report order,
   leaving and entering the direction's versions. *)
let check_session (name : string) (s : S.t) : unit =
  let r = S.result s in
  List.iter
    (fun dir ->
      let name = Printf.sprintf "%s %s" name (if dir = Ctx.Base_to_opt then "fwd" else "bwd") in
      let want = F.analyze (Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper dir) in
      Alcotest.(check bool) (name ^ ": summary") true (S.summary s dir = want);
      let src, target = if dir = Ctx.Base_to_opt then (r.fbase, r.fopt) else (r.fopt, r.fbase) in
      let ts = S.transitions s dir in
      Alcotest.(check bool)
        (name ^ ": transitions")
        true
        (List.map (fun (t : S.transition) -> (t.point, Some t.landing, Some t.plan)) ts
        = List.filter_map
            (fun (rep : F.point_report) ->
              match (rep.landing, rep.avail_plan) with
              | Some _, Some _ -> Some (rep.point, rep.landing, rep.avail_plan)
              | _ -> None)
            want.reports);
      Alcotest.(check bool)
        (name ^ ": versions")
        true
        (List.for_all (fun (t : S.transition) -> t.src == src && t.target == target) ts))
    directions

let test_session_matches_chain () =
  List.iter (fun (bench, s) -> check_session bench s) (Lazy.force Kernel_transitions.versions);
  let rand = Random.State.make [| 11 |] in
  for k = 1 to 5 do
    check_session (Printf.sprintf "Gen_ir #%d" k) (S.create (P.to_fbase (Gen_ir.gen_func rand)))
  done

(* -------------------- end-to-end transitions -------------------- *)

(* The oracle: running src with an OSR firing at any feasible point must be
   observationally equal to running src to completion. *)
let transitions_correct ?(args_list = Gen_ir.sample_args) (fbase : Ir.func) : bool =
  let s = S.create fbase in
  List.for_all
    (fun dir ->
      List.for_all
        (fun ({ src; target; point; landing; plan } : S.transition) ->
          List.for_all
            (fun args ->
              let reference = Interp.run ~fuel:1_000_000 src ~args in
              let with_osr, osr =
                Rt.run_transition ~fuel:1_000_000 ~src ~args ~at:point ~target ~landing plan
              in
              (* A feasible point must not abort: an abort would fall
                 back to the source run and trivially satisfy the
                 equality below, hiding a reconstruction bug. *)
              (match osr.Rt.aborted with
              | [] -> ()
              | { reason; _ } :: _ ->
                  QCheck.Test.fail_reportf "transfer aborted at %d→%d: %s" point landing
                    (Tinyvm.Osr_error.to_string reason));
              Interp.equal_result reference with_osr
              || QCheck.Test.fail_reportf
                   "OSR at %d→%d diverged: %a vs %a@.src:@.%s@.target:@.%s" point landing
                   Interp.pp_result reference Interp.pp_result with_osr
                   (Ir.func_to_string src) (Ir.func_to_string target))
            args_list)
        (S.transitions s dir))
    directions

let test_example_transitions () =
  Alcotest.(check bool) "all feasible transitions sound" true
    (transitions_correct (example ()))

let test_transition_mid_loop () =
  (* Fire on the third arrival inside the loop: partial accumulator state
     must transfer. *)
  let s = S.create (example ()) in
  let acc2 = (Hashtbl.find (Ir.def_table (S.result s).fbase) "acc2").Ir.di.id in
  match
    List.find_opt (fun (t : S.transition) -> t.point = acc2) (S.transitions s Ctx.Base_to_opt)
  with
  | None -> Alcotest.fail "no transition at acc2"
  | Some { src; target; landing; plan; _ } -> (
      let osr, _ =
        Rt.run_transition ~arrival:2 ~src ~args:[ 6; 3 ] ~at:acc2 ~target ~landing plan
      in
      match osr with
      | Ok o -> Alcotest.(check int) "mid-loop transfer" (run_int src [ 6; 3 ]) o.Interp.ret
      | Error t -> Alcotest.failf "trap: %a" Interp.pp_trap t)

let test_memory_carried_across () =
  (* Memory written before the transition must be visible after. *)
  let f =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  store %x, %s\n\
      \  %k = add 1, 1\n\
      \  %v = load %s\n\
      \  %r = add %v, %k\n\
      \  %r2 = add %r, %y\n\
      \  ret %r2\n\
       }\n"
  in
  let fbase = P.to_fbase f in
  Alcotest.(check bool) "memory example transitions hold" true
    (transitions_correct fbase)

(* -------------------- gating functions (Section 9) -------------------- *)

let test_gating_reconstruction () =
  (* A two-way φ over values computed before the branch: without gating the
     φ defeats reconstruction; with it, compensation emits a select over
     the governing condition.  The transition jumps from before the branch
     to after the join, so the φ result must be materialized. *)
  let f =
    parse
      "func @g(%x, %y) {\n\
       entry:\n\
      \  %a = add %x, 1\n\
      \  %b = mul %x, 2\n\
      \  %c = icmp sgt %x, 0\n\
      \  cbr %c, t, e\n\
       t:\n\
      \  br j\n\
       e:\n\
      \  br j\n\
       j:\n\
      \  %m = phi [t: %a], [e: %b]\n\
      \  %r = add %m, %y\n\
      \  ret %r\n\
       }\n"
  in
  Miniir.Verifier.verify_exn f;
  let r = P.apply ~pipeline:[] f in
  let ctx = S.ctx (S.of_result r) Ctx.Base_to_opt in
  let def_tbl = Ir.def_table r.fbase in
  let cbr_id = (Ir.block_exn r.fbase "entry").term_id in
  let r_id = (Hashtbl.find def_tbl "r").Ir.di.id in
  (* Without gating: undef (the φ has two distinct incomings). *)
  let no_gate = { R.default_config with gating = false } in
  (match R.for_point_pair ~variant:R.Live ~config:no_gate ctx ~src_point:cbr_id ~landing:r_id with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected undef without gating");
  (* With gating: a select materializes the φ. *)
  match R.for_point_pair ~variant:R.Live ctx ~src_point:cbr_id ~landing:r_id with
  | Error x -> Alcotest.failf "gating failed on %%%s" x
  | Ok plan ->
      Alcotest.(check bool) "plan contains a select" true
        (List.exists
           (fun (ci : R.comp_instr) ->
             match ci.rhs with Ir.Select _ -> true | _ -> false)
           plan.comp);
      (* Dynamic check on both branch polarities. *)
      List.iter
        (fun args ->
          let reference = Interp.run r.fbase ~args in
          let osr, _ =
            Rt.run_transition ~src:r.fbase ~args ~at:cbr_id ~target:r.fopt ~landing:r_id plan
          in
          Alcotest.(check bool)
            (Printf.sprintf "gated transition sound on %s"
               (String.concat "," (List.map string_of_int args)))
            true
            (Interp.equal_result reference osr))
        [ [ 5; 100 ]; [ -5; 100 ] ]

(* -------------------- properties -------------------- *)

let prop_transitions_sound =
  QCheck.Test.make ~count:25 ~name:"every feasible OSR transition is sound (both directions)"
    Gen_ir.arb_func (fun f0 ->
      let fbase = P.to_fbase f0 in
      transitions_correct ~args_list:[ [ 3; -2 ]; [ 0; 0 ]; [ 11; 7 ] ] fbase)

let prop_avail_superset =
  QCheck.Test.make ~count:30 ~name:"avail feasibility dominates live feasibility"
    Gen_ir.arb_func (fun f0 ->
      let session = S.create (P.to_fbase f0) in
      List.for_all
        (fun dir ->
          let s = S.summary session dir in
          s.empty <= s.live_ok && s.live_ok <= s.avail_ok && s.avail_ok <= s.total_points)
        directions)

let prop_contfuns_verify =
  QCheck.Test.make ~count:20 ~name:"generated continuation functions verify"
    Gen_ir.arb_func (fun f0 ->
      List.for_all
        (fun (t : S.transition) ->
          let cont = Osrir.Contfun.generate t.target ~landing:t.landing t.plan in
          match Miniir.Verifier.verify cont.fto with
          | Ok () -> true
          | Error es ->
              QCheck.Test.fail_reportf "%a@.%s"
                (Fmt.list ~sep:Fmt.cut Miniir.Verifier.pp_error)
                es
                (Ir.func_to_string cont.fto))
        (S.transitions (S.create (P.to_fbase f0)) Ctx.Base_to_opt))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let q test = QCheck_alcotest.to_alcotest test in
  ( "osrir",
    [
      t "landing points resolve" test_landing_points;
      t "value candidates via replacements" test_value_candidates;
      t "feasibility shapes" test_feasibility_shapes;
      t "continuation functions verify" test_contfun_verifies;
      t "continuations match the references" test_contfun_matches_reference;
      t "session matches the hand-built chain" test_session_matches_chain;
      t "example transitions sound" test_example_transitions;
      t "transition mid-loop" test_transition_mid_loop;
      t "memory carried across" test_memory_carried_across;
      t "gating-function reconstruction" test_gating_reconstruction;
      q prop_transitions_sound;
      q prop_avail_superset;
      q prop_contfuns_verify;
    ] )
