(** Differential tests of the compiled slot-register engine against the
    reference interpreter: byte-equal observables (return value, event
    trace, step count) and identical trap payloads over the whole corpus,
    randomized functions, trapping programs, and OSR transitions fired at
    every feasible point on both engines. *)

module Ir = Miniir.Ir
module Interp = Tinyvm.Interp
module Engine = Tinyvm.Engine
module Compiled = Tinyvm.Engine.Compiled
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module S = Osrir.Session
module Rt = Osrir.Osr_runtime

let parse = Miniir.Ir_parser.parse_func

(* Strict observable equality: both engines must agree on the return
   value, the full event trace, the step count, and — unlike
   [Interp.equal_result] — the exact trap payload. *)
let check_equal ctx (a : (Interp.outcome, Interp.trap) result)
    (b : (Interp.outcome, Interp.trap) result) : unit =
  match (a, b) with
  | Ok x, Ok y ->
      Alcotest.(check int) (ctx ^ ": ret") x.Interp.ret y.Interp.ret;
      Alcotest.(check int) (ctx ^ ": steps") x.Interp.steps y.Interp.steps;
      Alcotest.(check bool)
        (ctx ^ ": events") true
        (List.equal Interp.equal_event x.Interp.events y.Interp.events)
  | Error ta, Error tb ->
      Alcotest.(check bool)
        (Fmt.str "%s: identical traps (%a vs %a)" ctx Interp.pp_trap ta Interp.pp_trap tb)
        true (ta = tb)
  | Ok o, Error t ->
      Alcotest.failf "%s: reference returned (%a) but compiled trapped (%a)" ctx
        Interp.pp_result (Ok o) Interp.pp_trap t
  | Error t, Ok o ->
      Alcotest.failf "%s: reference trapped (%a) but compiled returned (%a)" ctx
        Interp.pp_trap t Interp.pp_result (Ok o)

let differential ?(fuel = 20_000_000) (ctx : string) (f : Ir.func) (args : int list) : unit =
  let reference = Interp.run ~fuel f ~args in
  let compiled = Compiled.run ~fuel f ~args in
  check_equal ctx reference compiled

(* -------------------- corpus -------------------- *)

let test_corpus_differential () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
      let r = P.apply fbase in
      differential (e.benchmark ^ " fbase") r.P.fbase e.default_args;
      differential (e.benchmark ^ " fopt") r.P.fopt e.default_args)
    Corpus.Kernels.all

(* -------------------- trapping programs -------------------- *)

let test_traps_differential () =
  let cases =
    [
      ( "div by zero",
        "func @f(%x, %y) {\n\
         entry:\n\
        \  %a = add %x, 1\n\
        \  %q = sdiv %a, %y\n\
        \  ret %q\n\
         }\n",
        [ 5; 0 ] );
      ( "rem by zero",
        "func @f(%x, %y) {\nentry:\n  %q = srem %x, %y\n  ret %q\n}\n",
        [ 7; 0 ] );
      ( "undef read",
        "func @f(%x, %y) {\nentry:\n  %a = add undef, %x\n  ret %a\n}\n",
        [ 1; 2 ] );
      ( "undef through select",
        "func @f(%x, %y) {\nentry:\n  %a = select %x, undef, %y\n  ret %a\n}\n",
        [ 1; 2 ] );
      ( "missing block",
        "func @f(%x, %y) {\nentry:\n  %c = icmp sgt %x, 0\n  cbr %c, nowhere, ok\nok:\n  ret %y\n}\n",
        [ 5; 9 ] );
      ( "missing block not taken",
        "func @f(%x, %y) {\nentry:\n  %c = icmp sgt %x, 0\n  cbr %c, nowhere, ok\nok:\n  ret %y\n}\n",
        [ -5; 9 ] );
      ( "unreachable",
        "func @f(%x, %y) {\nentry:\n  %c = icmp sgt %x, 0\n  cbr %c, dead, ok\ndead:\n  unreachable\nok:\n  ret %y\n}\n",
        [ 5; 9 ] );
      ( "unknown intrinsic",
        "func @f(%x, %y) {\nentry:\n  %v = call @mystery(%x)\n  ret %v\n}\n",
        [ 1; 2 ] );
      ( "undef arg before unknown intrinsic",
        "func @f(%x, %y) {\nentry:\n  %v = call @mystery(undef)\n  ret %v\n}\n",
        [ 1; 2 ] );
      ( "phi undef incoming poisons lazily",
        "func @f(%x, %y) {\n\
         entry:\n\
        \  %c = icmp sgt %x, 0\n\
        \  cbr %c, a, b\n\
         a:\n\
        \  br j\n\
         b:\n\
        \  br j\n\
         j:\n\
        \  %m = phi [a: undef], [b: %y]\n\
        \  %r = add %m, 1\n\
        \  ret %r\n\
         }\n",
        [ 5; 9 ] );
      ( "phi undef incoming, other edge fine",
        "func @f(%x, %y) {\n\
         entry:\n\
        \  %c = icmp sgt %x, 0\n\
        \  cbr %c, a, b\n\
         a:\n\
        \  br j\n\
         b:\n\
        \  br j\n\
         j:\n\
        \  %m = phi [a: undef], [b: %y]\n\
        \  %r = add %m, 1\n\
        \  ret %r\n\
         }\n",
        [ -5; 9 ] );
      ( "phi swap cycle",
        (* The classic parallel-move swap: both φs read the other's old
           value on the back edge. *)
        "func @f(%x, %y) {\n\
         entry:\n\
        \  br head\n\
         head:\n\
        \  %a = phi [entry: %x], [body: %b]\n\
        \  %b = phi [entry: %y], [body: %a]\n\
        \  %i = phi [entry: 0], [body: %i2]\n\
        \  %c = icmp slt %i, 5\n\
        \  cbr %c, body, exit\n\
         body:\n\
        \  %i2 = add %i, 1\n\
        \  br head\n\
         exit:\n\
        \  %r = sub %a, %b\n\
        \  ret %r\n\
         }\n",
        [ 31; 7 ] );
      ( "phi rotation cycle",
        "func @f(%x, %y) {\n\
         entry:\n\
        \  %z = add %x, %y\n\
        \  br head\n\
         head:\n\
        \  %a = phi [entry: %x], [body: %b]\n\
        \  %b = phi [entry: %y], [body: %c3]\n\
        \  %c3 = phi [entry: %z], [body: %a]\n\
        \  %i = phi [entry: 0], [body: %i2]\n\
        \  %cc = icmp slt %i, 7\n\
        \  cbr %cc, body, exit\n\
         body:\n\
        \  %i2 = add %i, 1\n\
        \  br head\n\
         exit:\n\
        \  %s1 = mul %a, 100\n\
        \  %s2 = mul %b, 10\n\
        \  %s3 = add %s1, %s2\n\
        \  %s4 = add %s3, %c3\n\
        \  ret %s4\n\
         }\n",
        [ 1; 2 ] );
      ( "events before trap",
        "func @f(%x, %y) {\n\
         entry:\n\
        \  call @emit(%x)\n\
        \  call @emit(%y)\n\
        \  %q = sdiv %x, %y\n\
        \  ret %q\n\
         }\n",
        [ 3; 0 ] );
    ]
  in
  List.iter (fun (name, src, args) -> differential name (parse src) args) cases

(* -------------------- randomized -------------------- *)

let prop_engines_agree =
  QCheck.Test.make ~count:120 ~name:"compiled engine ≡ reference on random functions"
    Gen_ir.arb_func_with_args (fun (f0, args) ->
      let fbase = P.to_fbase f0 in
      let r = P.apply fbase in
      List.for_all
        (fun f ->
          let reference = Interp.run ~fuel:1_000_000 f ~args in
          let compiled = Compiled.run ~fuel:1_000_000 f ~args in
          let ok =
            match (reference, compiled) with
            | Ok x, Ok y ->
                x.Interp.ret = y.Interp.ret && x.Interp.steps = y.Interp.steps
                && List.equal Interp.equal_event x.Interp.events y.Interp.events
            | Error ta, Error tb -> ta = tb
            | Ok _, Error _ | Error _, Ok _ -> false
          in
          ok
          || QCheck.Test.fail_reportf "engines diverge: %a vs %a@.%s" Interp.pp_result
               reference Interp.pp_result compiled (Ir.func_to_string f))
        [ r.P.fbase; r.P.fopt ])

(* -------------------- lockstep bisimulation -------------------- *)

(* Step both machines in lockstep and compare the program point at every
   step — much stronger than end-state equality: the engines must agree on
   the entire control path. *)
let test_lockstep_points () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
      let r = P.apply fbase in
      let mr = Interp.create r.P.fbase ~args:e.default_args in
      let mc = Compiled.create r.P.fbase ~args:e.default_args in
      let budget = ref 2_000_000 in
      let continue = ref true in
      while !continue && !budget > 0 do
        decr budget;
        let pr = Interp.next_instr_id mr and pc = Compiled.next_instr_id mc in
        if pr <> pc then
          Alcotest.failf "%s: lockstep diverged at step %d: ref %a vs compiled %a"
            e.benchmark mr.Interp.steps
            Fmt.(option ~none:(any "-") int)
            pr
            Fmt.(option ~none:(any "-") int)
            pc;
        match (Interp.step mr, Compiled.step mc) with
        | Interp.Running, Interp.Running -> ()
        | sr, sc ->
            (match (sr, sc) with
            | Interp.Returned a, Interp.Returned b ->
                Alcotest.(check int) (e.benchmark ^ ": lockstep ret") a b
            | Interp.Trapped ta, Interp.Trapped tb ->
                Alcotest.(check bool) (e.benchmark ^ ": lockstep trap") true (ta = tb)
            | _ -> Alcotest.failf "%s: lockstep status divergence" e.benchmark);
            continue := false
      done)
    (List.filteri (fun i _ -> i < 4) Corpus.Kernels.all)

(* At a mid-execution pause point, the compiled frame (read back through
   the slot table) must match the reference hashtable frame on every
   register the reference has defined. *)
let test_paused_frames_agree () =
  let e = List.hd Corpus.Kernels.all in
  let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
  let points = Ctx.source_points (S.ctx (S.create fbase) Ctx.Base_to_opt) in
  let checked = ref 0 in
  List.iteri
    (fun i point ->
      if i mod 7 = 0 then
        let mr = Interp.create fbase ~args:e.default_args in
        let mc = Compiled.create fbase ~args:e.default_args in
        match (Interp.run_to_point mr ~point ~skip:1, Compiled.run_to_point mc ~point ~skip:1)
        with
        | Some mr, Some mc ->
            incr checked;
            Alcotest.(check int)
              (Printf.sprintf "steps at pause #%d" point)
              mr.Interp.steps (Compiled.steps mc);
            Hashtbl.iter
              (fun reg v ->
                Alcotest.(check (option int))
                  (Printf.sprintf "%%%s at pause #%d" reg point)
                  (Some v) (Compiled.read_reg mc reg))
              mr.Interp.frame
        | None, None -> ()
        | Some _, None | None, Some _ ->
            Alcotest.failf "engines disagree on reachability of #%d" point)
    points;
  Alcotest.(check bool) "checked some pause points" true (!checked > 0)

(* -------------------- OSR transitions on both engines -------------------- *)

(* Fire an OSR transition at every feasible point, in both directions, on
   both engines: all four runs must be observationally equal, and the two
   engines byte-equal (ret, events, steps, traps). *)
let osr_differential (fbase : Ir.func) (args : int list) : unit =
  let s = S.create fbase in
  List.iter
    (fun dir ->
      List.iter
        (fun ({ src; target; point; landing; plan } : S.transition) ->
          let on_ref, _ =
            Rt.run_transition ~fuel:1_000_000 ~src ~args ~at:point ~target ~landing plan
          in
          let on_compiled, _ =
            Rt.Compiled.run_transition ~fuel:1_000_000 ~src ~args ~at:point ~target ~landing
              plan
          in
          check_equal (Printf.sprintf "OSR %d→%d" point landing) on_ref on_compiled;
          (* and the transition must still be sound wrt. plain runs *)
          let reference = Interp.run ~fuel:1_000_000 src ~args in
          Alcotest.(check bool)
            (Printf.sprintf "OSR %d→%d sound" point landing)
            true
            (Interp.equal_result reference on_compiled))
        (S.transitions s dir))
    [ Ctx.Base_to_opt; Ctx.Opt_to_base ]

let test_osr_differential_example () =
  let f =
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
  in
  osr_differential f [ 6; 3 ]

let test_osr_differential_corpus () =
  (* Two kernels keep the quadratic (points × runs) cost in check; the
     randomized property below covers broader shapes. *)
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
      osr_differential fbase e.default_args)
    (List.filteri (fun i _ -> i < 2) Corpus.Kernels.all)

let prop_osr_engines_agree =
  QCheck.Test.make ~count:10 ~name:"OSR transitions byte-equal across engines"
    Gen_ir.arb_func (fun f0 ->
      let s = S.create (P.to_fbase f0) in
      let args = [ 3; -2 ] in
      List.for_all
        (fun dir ->
          List.for_all
            (fun ({ src; target; point; landing; plan } : S.transition) ->
              let on_ref, _ =
                Rt.run_transition ~fuel:1_000_000 ~src ~args ~at:point ~target ~landing plan
              in
              let on_compiled, _ =
                Rt.Compiled.run_transition ~fuel:1_000_000 ~src ~args ~at:point ~target
                  ~landing plan
              in
              match (on_ref, on_compiled) with
              | Ok x, Ok y ->
                  x.Interp.ret = y.Interp.ret && x.Interp.steps = y.Interp.steps
                  && List.equal Interp.equal_event x.Interp.events y.Interp.events
                  || QCheck.Test.fail_reportf "OSR %d→%d diverged: %a vs %a" point landing
                       Interp.pp_result on_ref Interp.pp_result on_compiled
              | Error ta, Error tb -> ta = tb
              | Ok _, Error _ | Error _, Ok _ ->
                  QCheck.Test.fail_reportf "OSR %d→%d: one engine trapped: %a vs %a" point
                    landing Interp.pp_result on_ref Interp.pp_result on_compiled)
            (S.transitions s dir))
        [ Ctx.Base_to_opt; Ctx.Opt_to_base ])

(* -------------------- armed (non-firing) sites -------------------- *)

let test_armed_sites_no_fire () =
  (* Arming every source point with a never-firing guard must not change
     any observable on either engine. *)
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
      let s = S.create fbase in
      let cont =
        match S.transitions s Ctx.Base_to_opt with
        | t :: _ -> Osrir.Contfun.generate t.target ~landing:t.landing t.plan
        | [] -> Alcotest.fail "no feasible point to build a continuation from"
      in
      let points = Ctx.source_points (S.ctx s Ctx.Base_to_opt) in
      let plain = Interp.run fbase ~args:e.default_args in
      let mr = Interp.create fbase ~args:e.default_args in
      let armed_ref =
        fst
          (Rt.run_with_osr mr
             (List.map (fun p -> { Rt.at = p; guard = (fun _ -> false); cont }) points))
      in
      let mc = Compiled.create fbase ~args:e.default_args in
      let armed_compiled =
        fst
          (Rt.Compiled.run_with_osr mc
             (List.map (fun p -> { Rt.at = p; guard = (fun _ -> false); cont }) points))
      in
      check_equal (e.benchmark ^ " armed ref vs plain") plain armed_ref;
      check_equal (e.benchmark ^ " armed compiled vs plain") plain armed_compiled)
    (List.filteri (fun i _ -> i < 2) Corpus.Kernels.all)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let q test = QCheck_alcotest.to_alcotest test in
  ( "engine",
    [
      t "corpus differential (fbase + fopt)" test_corpus_differential;
      t "trapping programs differential" test_traps_differential;
      t "lockstep program points" test_lockstep_points;
      t "paused frames agree" test_paused_frames_agree;
      t "OSR differential on the example" test_osr_differential_example;
      t "OSR differential on corpus kernels" test_osr_differential_corpus;
      t "armed sites do not perturb" test_armed_sites_no_fire;
      q prop_engines_agree;
      q prop_osr_engines_agree;
    ] )
