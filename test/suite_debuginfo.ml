(** Tests for the Section 7 machinery: source-variable tracking, the
    endangered-variable analysis, and — most importantly — a dynamic oracle
    checking that every value the analysis claims recoverable really is
    recovered correctly at a live breakpoint. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module Interp = Tinyvm.Interp
module Ctx = Osrir.Osr_ctx
module R = Osrir.Reconstruct_ir
module E = Debuginfo.Endangered
module SV = Debuginfo.Source_vars

(* A small kernel with clear variable structure. *)
let kernel : Corpus.Dsl.kernel =
  let open Corpus.Dsl in
  {
    kname = "dbg_demo";
    params = [ "x"; "y" ];
    arrays = [];
    locals = [ "total"; "step" ];
    body =
      [
        Set ("step", Bin (Miniir.Ir.Mul, Param "y", Const 3));
        Set ("total", Const 0);
        For
          {
            i = "i";
            below = Param "x";
            body = [ Set ("total", Bin (Miniir.Ir.Add, Slot "total", Slot "step")) ];
          };
      ];
    ret = Slot "total";
  }

let test_families () =
  let fbase, dbg = Corpus.Dsl.to_fbase kernel in
  let sv = SV.analyze fbase ~user_vars:dbg.user_vars in
  List.iter
    (fun u ->
      Alcotest.(check bool) (u ^ " has a family") true (SV.family_of fbase u <> []))
    [ "total"; "step"; "i" ];
  (* At the return, total must be tracked. *)
  let ret_point = (List.hd (List.rev fbase.Ir.blocks)).Ir.term_id in
  match SV.value_at sv "total" ~point:ret_point with
  | Some carrier ->
      Alcotest.(check bool) "total carried by its family" true
        (List.mem carrier (SV.family_of fbase "total"))
  | None -> Alcotest.fail "total untracked at return"

let test_tracked_progression () =
  let fbase, dbg = Corpus.Dsl.to_fbase kernel in
  let sv = SV.analyze fbase ~user_vars:dbg.user_vars in
  (* Early in the function fewer variables are tracked than at the end. *)
  let first = List.hd dbg.source_points in
  let last = List.hd (List.rev dbg.source_points) in
  let n_at p = List.length (SV.tracked_at sv ~point:p) in
  Alcotest.(check bool) "tracking grows" true (n_at first <= n_at last)

(* -------------------- one-pass table vs rescan reference -------------------- *)

(* Every φ, body and terminator id of [f], plus two ids not in it. *)
let all_points (f : Ir.func) : int list =
  -1 :: f.Ir.next_id
  :: List.concat_map
       (fun (b : Ir.block) ->
         List.map (fun (i : Ir.instr) -> i.id) (Ir.block_instrs b) @ [ b.term_id ])
       f.blocks

(* [None] when both versions agree at every point, else the first
   disagreeing point.  The reference's [tracked_at] is its [value_at] over
   [user_vars], so its per-variable answer is read off that list instead of
   paying for a second quadratic rescan. *)
let source_vars_disagreement (f : Ir.func) ~(user_vars : string list) : int option =
  let sv = SV.analyze f ~user_vars and ref_sv = Source_vars_ref.analyze f ~user_vars in
  List.find_opt
    (fun point ->
      let want = Source_vars_ref.tracked_at ref_sv ~point in
      SV.tracked_at sv ~point <> want
      || List.exists (fun u -> SV.value_at sv u ~point <> List.assoc_opt u want) user_vars)
    (all_points f)

let check_source_vars_agree what (f : Ir.func) ~user_vars =
  match source_vars_disagreement f ~user_vars with
  | None -> ()
  | Some point ->
      Alcotest.failf "%s: Source_vars differs from the reference at point %d" what point

let test_source_vars_matches_reference () =
  let check (fbase : Ir.func) (dbg : Corpus.Dsl.debug_info) =
    let r = P.apply fbase in
    check_source_vars_agree (fbase.Ir.fname ^ " fbase") r.fbase ~user_vars:dbg.user_vars;
    check_source_vars_agree (fbase.Ir.fname ^ " fopt") r.fopt ~user_vars:dbg.user_vars
  in
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let fbase, dbg = Corpus.Dsl.to_fbase e.kernel in
      check fbase dbg)
    Corpus.Kernels.all;
  (* Every 8th study function keeps the quadratic reference to seconds. *)
  List.iteri
    (fun k (sf : Corpus.Spec_c.study_func) -> if k mod 8 = 0 then check sf.fbase sf.dbg)
    (List.concat_map Corpus.Spec_c.functions_of Corpus.Spec_c.profiles)

(* -------------------- hand-written edge cases -------------------- *)

let id_of (f : Ir.func) (r : Ir.reg) : int =
  (List.find (fun (i : Ir.instr) -> i.result = Some r) (Ir.all_instrs f)).id

let term_of (f : Ir.func) (label : string) : int = (Ir.block_exn f label).term_id

(* Parses [text], checks it against the reference at every point, and
   returns (function, analysis). *)
let edge_case text ~user_vars =
  let f = Miniir.Ir_parser.parse_func text in
  check_source_vars_agree f.Ir.fname f ~user_vars;
  (f, SV.analyze f ~user_vars)

let check_value what sv u ~point (want : Ir.reg option) =
  Alcotest.(check (option string)) what want (SV.value_at sv u ~point)

let test_edge_pruned_merge () =
  let f, sv =
    edge_case ~user_vars:[ "x" ]
      "func @pruned(%c) {\n\
       entry:\n\
      \  cbr %c, a, b\n\
       a:\n\
      \  %x.def.1 = add 1, 0\n\
      \  br m\n\
       b:\n\
      \  %x.def.2 = add 2, 0\n\
      \  br m\n\
       m:\n\
      \  %t = add 0, 0\n\
      \  ret %t\n\
       }\n"
  in
  check_value "x in arm a" sv "x" ~point:(term_of f "a") (Some "x.def.1");
  check_value "x in arm b" sv "x" ~point:(term_of f "b") (Some "x.def.2");
  (* No φ merges the two arms: conflicting defs, so untracked. *)
  check_value "x after the merge" sv "x" ~point:(id_of f "t") None;
  check_value "x at the return" sv "x" ~point:(term_of f "m") None

let test_edge_loop_carried () =
  let f, sv =
    edge_case ~user_vars:[ "x"; "z" ]
      "func @loop(%n) {\n\
       entry:\n\
      \  %z.def.1 = add 5, 0\n\
      \  %x.def.1 = add 0, 0\n\
      \  br head\n\
       head:\n\
      \  %x.slot.phi.2 = phi [entry: %x.def.1], [body: %x.def.3]\n\
      \  %c = icmp slt %x.slot.phi.2, %n\n\
      \  cbr %c, body, exit\n\
       body:\n\
      \  %t = mul %x.slot.phi.2, %z.def.1\n\
      \  %x.def.3 = add %x.slot.phi.2, 1\n\
      \  br head\n\
       exit:\n\
      \  ret %x.slot.phi.2\n\
       }\n"
  in
  let phi = id_of f "x.slot.phi.2" in
  (* At the φ itself two defs meet; z is defined once, before the loop. *)
  check_value "x at the header φ" sv "x" ~point:phi None;
  Alcotest.(check (list (pair string string)))
    "tracked at the header φ" [ ("z", "z.def.1") ] (SV.tracked_at sv ~point:phi);
  check_value "x after the header φ" sv "x" ~point:(id_of f "c") (Some "x.slot.phi.2");
  check_value "x in the body" sv "x" ~point:(id_of f "t") (Some "x.slot.phi.2");
  Alcotest.(check (list (pair string string)))
    "tracked at the latch terminator"
    [ ("x", "x.def.3"); ("z", "z.def.1") ]
    (SV.tracked_at sv ~point:(term_of f "body"));
  check_value "x after the loop" sv "x" ~point:(term_of f "exit") (Some "x.slot.phi.2")

let test_edge_two_defs_one_block () =
  let f, sv =
    edge_case ~user_vars:[ "x" ]
      "func @twice(%p) {\n\
       entry:\n\
      \  %x.def.1 = add %p, 1\n\
      \  %a = add %x.def.1, 1\n\
      \  %x.def.2 = add %p, 2\n\
      \  %b = add %x.def.2, 1\n\
      \  ret %b\n\
       }\n"
  in
  check_value "x before its first def" sv "x" ~point:(id_of f "x.def.1") None;
  check_value "x between the defs" sv "x" ~point:(id_of f "a") (Some "x.def.1");
  check_value "x at its second def" sv "x" ~point:(id_of f "x.def.2") (Some "x.def.1");
  check_value "x after the second def" sv "x" ~point:(id_of f "b") (Some "x.def.2");
  check_value "x at the return" sv "x" ~point:(term_of f "entry") (Some "x.def.2")

let test_edge_unreachable_block () =
  let f, sv =
    edge_case ~user_vars:[ "x" ]
      "func @dead(%p) {\n\
       entry:\n\
      \  %x.def.1 = add %p, 1\n\
      \  br exit\n\
       dead:\n\
      \  %y = add %p, 2\n\
      \  br exit\n\
       exit:\n\
      \  ret %x.def.1\n\
       }\n"
  in
  (* Nothing reaches a block without predecessors; a predecessor that
     defines nothing does not hide the reaching def. *)
  check_value "x in the dead block" sv "x" ~point:(id_of f "y") None;
  check_value "x at the dead terminator" sv "x" ~point:(term_of f "dead") None;
  check_value "x at the exit" sv "x" ~point:(term_of f "exit") (Some "x.def.1");
  Alcotest.(check (list (pair string string)))
    "unknown point" [] (SV.tracked_at sv ~point:f.next_id);
  check_value "unknown point" sv "x" ~point:(-1) None

let test_analysis_shape () =
  let fbase, dbg = Corpus.Dsl.to_fbase kernel in
  let r = P.apply fbase in
  let rep =
    E.analyze_function ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper ~user_vars:dbg.user_vars
      ~source_points:dbg.source_points
  in
  Alcotest.(check bool) "some points analyzed" true (rep.points <> []);
  List.iter
    (fun (p : E.point_report) ->
      List.iter
        (fun (v : E.var_status) ->
          (* recoverable_live implies recoverable_avail; non-endangered is
             always both. *)
          if v.recoverable_live && not v.recoverable_avail then
            Alcotest.failf "%s: live-recoverable but not avail-recoverable" v.var;
          if (not v.endangered) && not v.recoverable_live then
            Alcotest.failf "%s: directly reported but not recoverable" v.var)
        p.vars)
    rep.points

(* The dynamic oracle: stop fbase and fopt at corresponding breakpoints
   (same first dynamic arrival), evaluate every avail recovery plan against
   the live fopt frame, and compare with the carrier's value in the fbase
   frame. *)
let check_recovery_dynamically ((fbase, dbg) : Ir.func * Corpus.Dsl.debug_info)
    (args : int list) =
  let r = P.apply fbase in
  let rep =
    E.analyze_function ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper ~user_vars:dbg.user_vars
      ~source_points:dbg.source_points
  in
  let bwd = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Opt_to_base in
  let checked = ref 0 in
  List.iter
    (fun (p : E.point_report) ->
      let opt_machine = Interp.create r.fopt ~args in
      let base_machine = Interp.create r.fbase ~args in
      match
        ( Interp.run_to_point ~fuel:5_000_000 opt_machine ~point:p.opt_point,
          Interp.run_to_point ~fuel:5_000_000 base_machine ~point:p.base_point )
      with
      | Some om, Some bm ->
          List.iter
            (fun (v : E.var_status) ->
              if v.endangered && v.recoverable_avail then
                match
                  E.recovery_plan bwd R.Avail ~opt_point:p.opt_point ~base_point:p.base_point
                    v.carrier
                with
                | None -> Alcotest.failf "%s claimed recoverable but plan fails" v.var
                | Some plan -> (
                    match R.eval_plan plan ~src_frame:om.frame ~memory:om.memory with
                    | Error reg -> Alcotest.failf "plan for %s stuck on %%%s" v.var reg
                    | Ok env -> (
                        match
                          (Hashtbl.find_opt env v.carrier, Hashtbl.find_opt bm.frame v.carrier)
                        with
                        | Some got, Some want ->
                            incr checked;
                            if got <> want then
                              Alcotest.failf
                                "recovered %s (carrier %s) = %d but reference has %d at point %d"
                                v.var v.carrier got want p.base_point
                        | _, None -> ()  (* carrier never executed on this input *)
                        | None, _ -> Alcotest.failf "plan did not bind %s" v.carrier)))
            p.vars
      | _, _ -> ()  (* breakpoint not reached on this input *))
    rep.points;
  !checked

let test_recovery_dynamic_demo () =
  let n = check_recovery_dynamically (Corpus.Dsl.to_fbase kernel) [ 5; 4 ] in
  Alcotest.(check bool) "checked some recoveries" true (n > 0)

let test_recovery_dynamic_kernels () =
  List.iter
    (fun name ->
      let e = Option.get (Corpus.Kernels.find name) in
      ignore (check_recovery_dynamically (Corpus.Dsl.to_fbase e.kernel) e.default_args : int))
    [ "fhourstones"; "soplex"; "dcraw" ]

(* The first function of every SPEC-C profile, on one fixed (x, y). *)
let test_recovery_dynamic_study () =
  let checked =
    List.fold_left
      (fun acc (prof : Corpus.Spec_c.profile) ->
        let sf = Corpus.Spec_c.gen_function prof 0 in
        acc + check_recovery_dynamically (sf.fbase, sf.dbg) [ 7; 3 ])
      0 Corpus.Spec_c.profiles
  in
  Alcotest.(check bool) "checked some recoveries" true (checked > 0)

(* Regression for the loop-escape re-execution bug: a value computed inside
   a loop from the induction variable, dead in the optimized code after the
   loop, must NOT be "recovered" by re-executing its definition with the
   post-loop induction value. *)
let test_no_loop_escape_reexecution () =
  let open Corpus.Dsl in
  let k =
    {
      kname = "loop_escape";
      params = [ "n"; "y" ];
      arrays = [];
      locals = [ "probe"; "acc" ];
      body =
        [
          Set ("acc", Const 0);
          For
            {
              i = "i";
              below = Param "n";
              body =
                [
                  (* probe depends on the induction variable; acc keeps it
                     live in fbase, but fopt can fold the chain so probe's
                     carrier dies. *)
                  Set ("probe", Bin (Miniir.Ir.Mul, Slot "i", Const 10));
                  Set ("acc", Bin (Miniir.Ir.Add, Slot "acc", Slot "probe"));
                ];
            };
        ];
      ret = Slot "acc";
    }
  in
  let n = check_recovery_dynamically (Corpus.Dsl.to_fbase k) [ 6; 2 ] in
  (* The oracle itself is the assertion: any unsound recovery fails above. *)
  Alcotest.(check bool) "oracle ran" true (n >= 0)

let test_study_aggregates () =
  let prof = Option.get (Corpus.Spec_c.find "sjeng") in
  let reports =
    List.map
      (fun (sf : Corpus.Spec_c.study_func) ->
        let r = P.apply sf.fbase in
        E.analyze_function ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper
          ~user_vars:sf.dbg.user_vars ~source_points:sf.dbg.source_points)
      (Corpus.Spec_c.functions_of prof)
  in
  List.iter
    (fun rep ->
      let f = E.affected_fraction rep in
      Alcotest.(check bool) "fraction in [0,1]" true (f >= 0.0 && f <= 1.0);
      (match E.recoverability rep `Avail with
      | Some x -> Alcotest.(check bool) "ratio in [0,1]" true (x >= 0.0 && x <= 1.0)
      | None -> ());
      (* live recoverability never exceeds avail recoverability *)
      match (E.recoverability rep `Live, E.recoverability rep `Avail) with
      | Some l, Some a ->
          Alcotest.(check bool) "live <= avail" true (l <= a +. 1e-9)
      | _ -> ())
    reports

(* Whole-study totals over all 759 functions, measured before the one-pass
   source-variable table and pinned exactly: (points, tracked vars,
   endangered, live-recoverable, avail-recoverable, keep-set size). *)
let test_study_totals () =
  let totals = [| 0; 0; 0; 0; 0; 0 |] in
  let bump k = totals.(k) <- totals.(k) + 1 in
  List.iter
    (fun (prof : Corpus.Spec_c.profile) ->
      List.iter
        (fun (sf : Corpus.Spec_c.study_func) ->
          let r = P.apply sf.fbase in
          let rep =
            E.analyze_function ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper
              ~user_vars:sf.dbg.user_vars ~source_points:sf.dbg.source_points
          in
          totals.(5) <- totals.(5) + List.length (E.keep_set rep);
          List.iter
            (fun (p : E.point_report) ->
              bump 0;
              List.iter
                (fun (v : E.var_status) ->
                  bump 1;
                  if v.endangered then begin
                    bump 2;
                    if v.recoverable_live then bump 3;
                    if v.recoverable_avail then bump 4
                  end)
                p.vars)
            rep.points)
        (Corpus.Spec_c.functions_of prof))
    Corpus.Spec_c.profiles;
  Alcotest.(check (list int))
    "points, vars, endangered, live, avail, keep"
    [ 30253; 174843; 51419; 3059; 44081; 6658 ]
    (Array.to_list totals)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let s name f = Alcotest.test_case name `Slow f in
  ( "debuginfo",
    [
      t "variable families" test_families;
      t "tracking progression" test_tracked_progression;
      s "source vars match the rescan reference" test_source_vars_matches_reference;
      t "source vars: pruned merge φ" test_edge_pruned_merge;
      t "source vars: loop-carried variable" test_edge_loop_carried;
      t "source vars: two defs in one block" test_edge_two_defs_one_block;
      t "source vars: unreachable block" test_edge_unreachable_block;
      t "analysis shape invariants" test_analysis_shape;
      t "dynamic recovery oracle (demo kernel)" test_recovery_dynamic_demo;
      s "dynamic recovery oracle (corpus kernels)" test_recovery_dynamic_kernels;
      s "dynamic recovery oracle (SPEC-C profiles)" test_recovery_dynamic_study;
      t "no loop-escape re-execution" test_no_loop_escape_reexecution;
      s "study aggregates" test_study_aggregates;
      s "study totals" test_study_totals;
    ] )
