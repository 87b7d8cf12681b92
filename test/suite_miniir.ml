(** Tests for the MiniIR substrate: construction, printing/parsing,
    verification, dominance, liveness, loops, and the TinyVM interpreter. *)

module Ir = Miniir.Ir
module Builder = Miniir.Builder
module Verifier = Miniir.Verifier
module Dom = Miniir.Dom
module Liveness = Miniir.Liveness
module Loops = Miniir.Loops
module Interp = Tinyvm.Interp

(* A classic countdown-sum: sum of 0..x-1 via a loop with φ-nodes. *)
let sum_func () : Ir.func =
  let b = Builder.create ~name:"sum" ~params:[ "x" ] in
  Builder.add_block_at b "entry";
  Builder.br b "head";
  Builder.add_block_at b "head";
  let i = Builder.phi ~reg:"i" b [ ("entry", Ir.Const 0); ("body", Ir.Reg "i2") ] in
  let s = Builder.phi ~reg:"s" b [ ("entry", Ir.Const 0); ("body", Ir.Reg "s2") ] in
  let c = Builder.icmp b Ir.Slt i (Builder.param b "x") in
  Builder.cbr b c "body" "exit";
  Builder.add_block_at b "body";
  let s2 = Builder.add ~reg:"s2" b s i in
  let _i2 = Builder.add ~reg:"i2" b i (Ir.Const 1) in
  ignore s2;
  Builder.br b "head";
  Builder.add_block_at b "exit";
  Builder.ret b s;
  Builder.finish b

let run_int f args =
  match Interp.run f ~args with
  | Ok o -> o.Interp.ret
  | Error t -> Alcotest.failf "trap: %a" Interp.pp_trap t

let test_builder_and_interp () =
  let f = sum_func () in
  Miniir.Verifier.verify_exn f;
  Alcotest.(check int) "sum 0..9" 45 (run_int f [ 10 ]);
  Alcotest.(check int) "sum of none" 0 (run_int f [ 0 ]);
  Alcotest.(check int) "negative bound" 0 (run_int f [ -3 ])

let test_print_parse_roundtrip () =
  let f = sum_func () in
  let txt = Ir.func_to_string f in
  let g = Miniir.Ir_parser.parse_func txt in
  Verifier.verify_exn g;
  Alcotest.(check int) "same behaviour" (run_int f [ 7 ]) (run_int g [ 7 ]);
  Alcotest.(check int) "instruction count" (Ir.instr_count f) (Ir.instr_count g);
  Alcotest.(check int) "phi count" (Ir.phi_count f) (Ir.phi_count g)

let test_parser_errors () =
  let expect_fail src =
    match Miniir.Ir_parser.parse_func src with
    | _ -> Alcotest.failf "expected parse error for %S" src
    | exception Miniir.Ir_parser.Parse_error _ -> ()
  in
  expect_fail "func @f(%x) {\nentry:\n  %a = bogus %x, 1\n  ret %a\n}\n";
  expect_fail "func @f(%x) {\nentry:\n  %a = add ?, 1\n  ret %a\n}\n";
  expect_fail "%a = add 1, 2\n"

let test_verifier_catches () =
  let bad_use () =
    (* use of a register defined in a non-dominating block *)
    Miniir.Ir_parser.parse_func
      "func @f(%x) {\n\
       entry:\n\
      \  cbr %x, a, b\n\
       a:\n\
      \  %t = add %x, 1\n\
      \  br join\n\
       b:\n\
      \  br join\n\
       join:\n\
      \  %u = add %t, 1\n\
      \  ret %u\n\
       }\n"
  in
  (match Verifier.verify (bad_use ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier missed non-dominating use");
  let double_def =
    Miniir.Ir_parser.parse_func
      "func @f(%x) {\nentry:\n  %t = add %x, 1\n  %t = add %x, 2\n  ret %t\n}\n"
  in
  match Verifier.verify double_def with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier missed double definition"

let test_verifier_phi_shape () =
  let f =
    Miniir.Ir_parser.parse_func
      "func @f(%x) {\n\
       entry:\n\
      \  br head\n\
       head:\n\
      \  %i = phi [entry: 0]\n\
      \  %c = icmp slt %i, %x\n\
      \  cbr %c, head, exit\n\
       exit:\n\
      \  ret %i\n\
       }\n"
  in
  (* head has two predecessors (entry, head) but the φ lists only one. *)
  match Verifier.verify f with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier missed φ/predecessor mismatch"

let test_dominance () =
  let f = sum_func () in
  let dom = Dom.compute f in
  Alcotest.(check bool) "entry dominates exit" true
    (Dom.dominates_block dom ~a:"entry" ~b:"exit");
  Alcotest.(check bool) "head dominates body" true (Dom.dominates_block dom ~a:"head" ~b:"body");
  Alcotest.(check bool) "body does not dominate exit" false
    (Dom.dominates_block dom ~a:"body" ~b:"exit");
  Alcotest.(check (option string)) "idom of exit" (Some "head") (Dom.idom_of dom "exit")

let test_dominance_frontier () =
  let f =
    Miniir.Ir_parser.parse_func
      "func @f(%x) {\n\
       entry:\n\
      \  cbr %x, a, b\n\
       a:\n\
      \  br join\n\
       b:\n\
      \  br join\n\
       join:\n\
      \  ret %x\n\
       }\n"
  in
  let df = Dom.frontiers (Dom.compute f) in
  Alcotest.(check (list string)) "df(a)" [ "join" ] (Hashtbl.find df "a");
  Alcotest.(check (list string)) "df(b)" [ "join" ] (Hashtbl.find df "b");
  Alcotest.(check (list string)) "df(entry)" [] (Hashtbl.find df "entry")

let test_liveness () =
  let f = sum_func () in
  let lv = Liveness.compute f in
  let def_tbl = Ir.def_table f in
  let s2_def = (Hashtbl.find def_tbl "s2").Ir.di.id in
  (* At s2's definition, i and s are live (both still read after). *)
  Alcotest.(check bool) "i live at s2 def" true (Liveness.is_live lv s2_def "i");
  Alcotest.(check bool) "s live at s2 def" true (Liveness.is_live lv s2_def "s");
  (* x is live inside the loop (read by the comparison each iteration). *)
  let c_def = (Hashtbl.find def_tbl "t.0").Ir.di.id in
  Alcotest.(check bool) "x live at cmp" true (Liveness.is_live lv c_def "x");
  (* After the exit branch, only s matters. *)
  let exit_term = (Ir.block_exn f "exit").term_id in
  Alcotest.(check (list string)) "live at ret" [ "s" ] (Liveness.live_at lv exit_term)

let test_loops () =
  let f = sum_func () in
  let li = Loops.compute f in
  match li.loops with
  | [ l ] ->
      Alcotest.(check string) "header" "head" l.header;
      Alcotest.(check (list string)) "body" [ "body"; "head" ] (List.sort compare l.body);
      Alcotest.(check (list string)) "exit targets" [ "exit" ] (Loops.exit_targets f l);
      Alcotest.(check (option string)) "preheader" (Some "entry") (Loops.preheader f l)
  | ls -> Alcotest.failf "expected 1 loop, got %d" (List.length ls)

let test_interp_memory () =
  let f =
    Miniir.Ir_parser.parse_func
      "func @f(%x) {\n\
       entry:\n\
      \  %a = alloca 4\n\
      \  %a1 = add %a, 1\n\
      \  store %x, %a1\n\
      \  %v = load %a1\n\
      \  %z = load %a\n\
      \  %r = add %v, %z\n\
      \  ret %r\n\
       }\n"
  in
  Alcotest.(check int) "store/load + zero-init" 42 (run_int f [ 42 ])

let test_interp_traps () =
  let div =
    Miniir.Ir_parser.parse_func "func @f(%x) {\nentry:\n  %r = sdiv 10, %x\n  ret %r\n}\n"
  in
  (match Interp.run div ~args:[ 0 ] with
  | Error (Interp.Division_by_zero _) -> ()
  | r -> Alcotest.failf "expected div0 trap, got %a" Interp.pp_result r);
  Alcotest.(check int) "normal division" 5 (run_int div [ 2 ]);
  let unk =
    Miniir.Ir_parser.parse_func "func @f(%x) {\nentry:\n  %r = call @mystery(%x)\n  ret %r\n}\n"
  in
  match Interp.run unk ~args:[ 1 ] with
  | Error (Interp.Unknown_intrinsic _) -> ()
  | r -> Alcotest.failf "expected unknown intrinsic, got %a" Interp.pp_result r

let test_interp_events () =
  let f =
    Miniir.Ir_parser.parse_func
      "func @f(%x) {\n\
       entry:\n\
      \  call @emit(%x)\n\
      \  %y = mul %x, 2\n\
      \  call @emit(%y)\n\
      \  ret %y\n\
       }\n"
  in
  match Interp.run f ~args:[ 3 ] with
  | Ok o ->
      Alcotest.(check (list (list int))) "events" [ [ 3 ]; [ 6 ] ]
        (List.map (fun (e : Interp.event) -> e.arg_values) o.events)
  | Error t -> Alcotest.failf "trap %a" Interp.pp_trap t

let test_machine_stepping () =
  let f = sum_func () in
  let m = Interp.create f ~args:[ 3 ] in
  (* Step to the third arrival at the s2 definition. *)
  let def_tbl = Ir.def_table f in
  let s2_def = (Hashtbl.find def_tbl "s2").Ir.di.id in
  match Interp.run_to_point m ~point:s2_def ~skip:2 with
  | Some m ->
      Alcotest.(check (option int)) "i = 2 on third arrival" (Some 2)
        (Hashtbl.find_opt m.frame "i");
      Alcotest.(check (option int)) "s = 1" (Some 1) (Hashtbl.find_opt m.frame "s")
  | None -> Alcotest.fail "point not reached"

let test_clone_independent () =
  let f = sum_func () in
  let g = Ir.clone_func f in
  (Ir.block_exn g "body").body <- [];
  Alcotest.(check bool) "original untouched" true ((Ir.block_exn f "body").body <> []);
  Alcotest.(check int) "original still runs" 45 (run_int f [ 10 ])

(* -------------------- properties -------------------- *)

let prop_generated_verify =
  QCheck.Test.make ~count:150 ~name:"generated IR verifies" Gen_ir.arb_func (fun f ->
      match Verifier.verify f with
      | Ok () -> true
      | Error es ->
          QCheck.Test.fail_reportf "%a" (Fmt.list ~sep:Fmt.cut Verifier.pp_error) es)

let prop_generated_terminate =
  QCheck.Test.make ~count:150 ~name:"generated IR terminates" Gen_ir.arb_func_with_args
    (fun (f, args) ->
      match Interp.run ~fuel:1_000_000 f ~args with
      | Ok _ -> true
      | Error (Interp.Fuel_exhausted _) -> QCheck.Test.fail_report "out of fuel"
      | Error t -> QCheck.Test.fail_reportf "trap: %a" Interp.pp_trap t)

let prop_roundtrip =
  QCheck.Test.make ~count:100 ~name:"IR print/parse round-trip behaviour"
    Gen_ir.arb_func_with_args (fun (f, args) ->
      let g = Miniir.Ir_parser.parse_func (Ir.func_to_string f) in
      Interp.equal_result (Interp.run f ~args) (Interp.run g ~args))

let prop_determinism =
  QCheck.Test.make ~count:80 ~name:"interpreter is deterministic" Gen_ir.arb_func_with_args
    (fun (f, args) -> Interp.equal_result (Interp.run f ~args) (Interp.run f ~args))

(* Every program point of [f]: φ ids, body ids, terminator ids. *)
let all_points (f : Ir.func) : int list =
  List.concat_map
    (fun (b : Ir.block) ->
      List.map (fun (i : Ir.instr) -> i.Ir.id) (b.phis @ b.body) @ [ b.term_id ])
    f.blocks

let all_regs (f : Ir.func) : string list =
  let def_tbl = Ir.def_table f in
  f.params @ Hashtbl.fold (fun r _ acc -> r :: acc) def_tbl []

(* [compute] and [live_at_point] against the reference at every point, and
   [live_at_point] at two unknown ids. *)
let liveness_agrees (f : Ir.func) : bool =
  let lv = Liveness.compute f in
  let oracle = Liveness_ref.compute f in
  let regs = "nonexistent" :: all_regs f in
  List.for_all
    (fun p ->
      let got = Liveness.live_at lv p in
      let want = Liveness_ref.live_at oracle p in
      if got <> want then
        QCheck.Test.fail_reportf "live_at %d: [%s] vs reference [%s]\n%s" p
          (String.concat " " got) (String.concat " " want) (Ir.func_to_string f)
      else if Liveness.live_at_point f p <> want then
        QCheck.Test.fail_reportf "live_at_point %d disagrees\n%s" p (Ir.func_to_string f)
      else
        List.for_all
          (fun r ->
            Liveness.is_live lv p r = Liveness_ref.is_live oracle p r
            || QCheck.Test.fail_reportf "is_live %d %s disagrees" p r)
          regs)
    (all_points f)
  && List.for_all
       (fun (b : Ir.block) ->
         Liveness.live_out_of lv b.label = Liveness_ref.live_out_of oracle b.label
         || QCheck.Test.fail_reportf "live_out_of %s disagrees" b.label)
       f.blocks
  && List.for_all
       (fun p ->
         Liveness.live_at_point f p = []
         || QCheck.Test.fail_reportf "live_at_point of unknown #%d is not empty" p)
       [ -1; f.next_id ]

(* On the alloca form and on its mem2reg promotion, which has the φ-nodes
   the alloca form lacks. *)
let prop_liveness_agrees_with_reference =
  QCheck.Test.make ~count:150 ~name:"bitset liveness agrees with reference"
    Gen_ir.arb_func (fun (f : Ir.func) ->
      liveness_agrees f && liveness_agrees (Passes.Pass_manager.to_fbase f))

(* The same on real functions: [compute] at every point of the 12 kernels'
   fbase/fopt and of every 20th continuation, [live_at_point] at every
   point of fbase/fopt.  [live_at_point] solves the whole function per
   call, so on the continuations it is checked at the landing and at every
   10th point. *)
let test_liveness_matches_reference_corpus () =
  let check ?(sample = fun _ _ -> true) name (f : Ir.func) =
    let lv = Liveness.compute f in
    let oracle = Liveness_ref.compute f in
    List.iteri
      (fun k p ->
        let want = Liveness_ref.live_at oracle p in
        if Liveness.live_at lv p <> want then Alcotest.failf "%s: live_at #%d" name p;
        if sample k p && Liveness.live_at_point f p <> want then
          Alcotest.failf "%s: live_at_point #%d" name p)
      (all_points f)
  in
  List.iter
    (fun (bench, s) ->
      let r = Osrir.Session.result s in
      check (bench ^ " fbase") r.fbase;
      check (bench ^ " fopt") r.fopt)
    (Lazy.force Kernel_transitions.versions);
  List.iter
    (fun (t : Kernel_transitions.transition) ->
      check
        ~sample:(fun k p -> p = t.landing || k mod 10 = 0)
        t.name (Osrir.Contfun.generate t.target ~landing:t.landing t.plan).fto)
    (Lazy.force Kernel_transitions.every_20th)

let prop_func_index_consistent =
  QCheck.Test.make ~count:150 ~name:"Func_index agrees with linear lookups"
    Gen_ir.arb_func (fun (f : Ir.func) ->
      let idx = Miniir.Func_index.make f in
      (match Miniir.Func_index.check idx with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "Func_index.check: %s" msg);
      List.for_all
        (fun (b : Ir.block) ->
          (match (Miniir.Func_index.find_block idx b.label, Ir.find_block f b.label) with
          | Some b1, Some b2 -> b1 == b2
          | _ -> false)
          && Miniir.Func_index.successors idx b.label = Ir.successors b
          && List.sort compare (Miniir.Func_index.predecessors idx b.label)
             = List.sort compare (Ir.predecessors f b.label))
        f.blocks
      && Miniir.Func_index.find_block idx "nonexistent" = None
      && List.for_all
           (fun p ->
             match Miniir.Func_index.position_of idx p with
             | None -> false
             | Some (label, _) -> Miniir.Func_index.owner_of idx p = Some label)
           (all_points f)
      && List.for_all (fun r -> Miniir.Func_index.is_param idx r) f.params)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let q test = QCheck_alcotest.to_alcotest test in
  ( "miniir",
    [
      t "builder + interpreter" test_builder_and_interp;
      t "print/parse round-trip" test_print_parse_roundtrip;
      t "parser rejects garbage" test_parser_errors;
      t "verifier catches SSA breakage" test_verifier_catches;
      t "verifier checks φ shape" test_verifier_phi_shape;
      t "dominance" test_dominance;
      t "dominance frontier" test_dominance_frontier;
      t "liveness" test_liveness;
      t "loop detection" test_loops;
      t "interp memory" test_interp_memory;
      t "interp traps" test_interp_traps;
      t "interp events" test_interp_events;
      t "machine stepping" test_machine_stepping;
      t "clone independence" test_clone_independent;
      q prop_generated_verify;
      q prop_generated_terminate;
      q prop_roundtrip;
      q prop_determinism;
      q prop_liveness_agrees_with_reference;
      t "liveness matches reference on corpus" test_liveness_matches_reference_corpus;
      q prop_func_index_consistent;
    ] )
