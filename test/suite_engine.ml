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

(* -------------------- unboxed binop evaluator -------------------- *)

let all_binops = Ir.[ Add; Sub; Mul; Sdiv; Srem; Shl; Lshr; Ashr; And; Or; Xor ]

let edge_operands =
  [ 0; 1; -1; 2; -2; 61; 62; 63; 64; -62; min_int; max_int; min_int + 1; max_int - 1 ]

(* [Engine.eval_binop] must return what [Fold.eval_binop] wraps in [Some],
   and raise exactly where that returns [None]: division by zero for
   sdiv/srem, an out-of-range amount for the shifts. *)
let binop_agrees (op : Ir.binop) (a : int) (b : int) : bool =
  let at = 7 in
  let unboxed =
    match Engine.eval_binop ~at op a b with v -> Ok v | exception Interp.Trap t -> Error t
  in
  match (Passes.Fold.eval_binop op a b, unboxed) with
  | Some v, Ok w -> v = w
  | None, Error t -> (
      match op with
      | Ir.Shl | Ir.Lshr | Ir.Ashr -> t = Interp.Shift_out_of_range at
      | _ -> t = Interp.Division_by_zero at)
  | Some _, Error _ | None, Ok _ -> false

let test_binop_edge_operands () =
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if not (binop_agrees op a b) then
                Alcotest.failf "%s %d, %d: unboxed evaluator disagrees with Fold"
                  (Ir.binop_name op) a b)
            edge_operands)
        edge_operands)
    all_binops

let prop_binop_agrees =
  let operand = QCheck.Gen.(frequency [ (1, oneofl edge_operands); (1, int) ]) in
  QCheck.Test.make ~count:2000 ~name:"unboxed binop evaluator ≡ Fold.eval_binop"
    QCheck.(
      make
        ~print:(fun (op, a, b) -> Printf.sprintf "%s %d, %d" (Ir.binop_name op) a b)
        Gen.(triple (oneofl all_binops) operand operand))
    (fun (op, a, b) -> binop_agrees op a b)

(* -------------------- shift amounts out of range -------------------- *)

let test_shift_trap () =
  List.iter
    (fun (src, args) ->
      let f = parse src in
      let id = (List.hd (Ir.entry f).Ir.body).Ir.id in
      List.iter
        (fun (module E : Engine.S) ->
          match E.run f ~args with
          | Error (Interp.Shift_out_of_range at as t) ->
              Alcotest.(check int) (E.name ^ ": trap at the shift") id at;
              Alcotest.(check string) (E.name ^ ": message")
                (Printf.sprintf "shift amount out of range at #%d" id)
                (Fmt.str "%a" Interp.pp_trap t)
          | r -> Alcotest.failf "%s: expected a shift trap, got %a" E.name Interp.pp_result r)
        Engine.all)
    [
      ("func @f(%x) {\nentry:\n  %s = shl %x, 63\n  ret %s\n}\n", [ 1 ]);
      ("func @f(%x, %y) {\nentry:\n  %s = lshr %x, %y\n  ret %s\n}\n", [ 5; -1 ]);
      ("func @f(%x, %y) {\nentry:\n  %s = ashr %x, %y\n  ret %s\n}\n", [ 5; 64 ]);
    ]

(* -------------------- run_to_point step budget -------------------- *)

(* A [run_to_point] whose budget runs out returns [None] and leaves the
   machine running, not trapped, even when the budget and the machine's
   own fuel end at the same step; resuming it gives the outcome of a run
   that was never stopped. *)
let test_run_to_point_budget () =
  let e = List.hd Corpus.Kernels.all in
  let f, _ = Corpus.Dsl.to_fbase e.kernel in
  let args = e.default_args in
  let ret_point =
    List.find_map
      (fun (b : Ir.block) -> match b.term with Ir.Ret _ -> Some b.term_id | _ -> None)
      f.Ir.blocks
    |> Option.get
  in
  List.iter
    (fun (module E : Engine.S) ->
      let plain = E.run f ~args in
      let total =
        match plain with Ok o -> o.Interp.steps | Error _ -> Alcotest.fail "kernel trapped"
      in
      let ctx what = Printf.sprintf "%s: %s" E.name what in
      let check_paused what m steps =
        Alcotest.(check bool) (ctx what ^ ": still running") true (E.status m = Interp.Running);
        Alcotest.(check int) (ctx what ^ ": steps") steps (E.steps m)
      in
      (* a point never reached *)
      let m = E.create f ~args in
      Alcotest.(check bool) (ctx "unreached point") true
        (E.run_to_point ~fuel:100 m ~point:(-1) = None);
      check_paused "unreached point" m 100;
      check_equal (ctx "resumed after an unreached point") plain (E.run_machine m);
      (* the return, reached only after the budget *)
      let m = E.create f ~args in
      Alcotest.(check bool) (ctx "budget before the point") true
        (E.run_to_point ~fuel:(total / 2) m ~point:ret_point = None);
      check_paused "budget before the point" m (total / 2);
      (match E.run_to_point m ~point:ret_point with
      | Some m -> Alcotest.(check int) (ctx "point after resuming") (total - 1) (E.steps m)
      | None -> Alcotest.fail (ctx "point not reached after resuming"));
      check_equal (ctx "resumed to the end") plain (E.run_machine m);
      (* the budget and the machine's fuel run out at the same step *)
      let m = E.create ~fuel:50 f ~args in
      Alcotest.(check bool) (ctx "budget = fuel") true
        (E.run_to_point ~fuel:50 m ~point:(-1) = None);
      check_paused "budget = fuel" m 50;
      E.set_fuel m max_int;
      check_equal (ctx "resumed after budget = fuel") plain (E.run_machine m))
    Engine.all

(* -------------------- run_with_osr across engines -------------------- *)

type guard_kind =
  | Never
  | On_arrival of int  (** fire on this arrival at the site, counting from 0 *)
  | Reg_clear of Ir.reg * int
      (** fire when the register is defined and [v land mask = 0] *)

type hook_kind = No_hooks | Random_faults of int | Only of Osrir.Fault.kind

type armed_spec = { sites : (int * Osrir.Contfun.t * guard_kind) list; hooks : hook_kind }

(* One armed run on either engine.  Guards and hooks are built fresh for
   every run, so both engines start from the same state. *)
module Armed (E : Engine.S) (R : Rt.S with type machine = E.machine) = struct
  let guard : guard_kind -> E.machine -> bool = function
    | Never -> fun _ -> false
    | On_arrival k ->
        let seen = ref 0 in
        fun _ ->
          let hit = !seen = k in
          incr seen;
          hit
    | Reg_clear (r, mask) -> (
        fun m -> match E.read_reg m r with Some v -> v land mask = 0 | None -> false)

  let run ?telemetry ?(fuel = 1_000_000) (f : Ir.func) ~(args : int list) (spec : armed_spec) =
    let m = E.create ?telemetry f ~args in
    let hooks =
      match spec.hooks with
      | No_hooks -> Rt.no_hooks
      | Random_faults seed -> Osrir.Fault.hooks (Osrir.Fault.make ~seed)
      | Only kind -> Osrir.Fault.hooks ~only:kind (Osrir.Fault.make ~seed:0)
    in
    let sites = List.map (fun (at, cont, g) -> { Rt.at; guard = guard g; cont }) spec.sites in
    (R.run_with_osr ~fuel ~hooks m sites, m)
end

module Armed_ref = Armed (Engine.Reference) (Rt)
module Armed_compiled = Armed (Compiled) (Rt.Compiled)

(* A random armed spec over the feasible transitions of [s] in [dir]:
   about a third of them armed, each behind a guard that never fires,
   fires on a drawn arrival or tests a drawn register, under no hooks,
   seeded random faults, or guards that always trap, misfire or are
   suppressed. *)
let random_spec (st : Random.State.t) (s : S.t) (dir : Ctx.direction) : armed_spec =
  let regs =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map (fun (i : Ir.instr) -> i.Ir.result) (b.Ir.phis @ b.Ir.body))
      (S.ctx s dir).Ctx.src.Ctx.func.Ir.blocks
    |> Array.of_list
  in
  let sites =
    List.filter_map
      (fun (t : S.transition) ->
        if Random.State.int st 3 <> 0 then None
        else
          let g =
            match Random.State.int st 4 with
            | 0 -> Never
            | 1 when Array.length regs > 0 ->
                Reg_clear
                  (regs.(Random.State.int st (Array.length regs)), 1 + Random.State.int st 7)
            | _ -> On_arrival (Random.State.int st 4)
          in
          Some (t.point, Osrir.Contfun.generate t.target ~landing:t.landing t.plan, g))
      (S.transitions s dir)
  in
  let hooks =
    match Random.State.int st 5 with
    | 0 | 1 -> No_hooks
    | 2 -> Random_faults (Random.State.bits st)
    | 3 -> Only Osrir.Fault.Guard_trap
    | _ -> Only (if Random.State.bool st then Osrir.Fault.Misfire else Osrir.Fault.Suppress)
  in
  { sites; hooks }

(* Both engines give equal (result, osr_outcome), aborted list included. *)
let armed_engines_agree (f : Ir.func) ~(args : int list) (spec : armed_spec) : bool =
  let (on_ref, out_ref), _ = Armed_ref.run f ~args spec in
  let (on_compiled, out_compiled), _ = Armed_compiled.run f ~args spec in
  on_ref = on_compiled && out_ref = out_compiled

let test_armed_random_kernels () =
  List.iteri
    (fun k (e : Corpus.Kernels.entry) ->
      let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
      let s = S.create fbase in
      for seed = 0 to 5 do
        let st = Random.State.make [| k; seed |] in
        List.iter
          (fun dir ->
            let spec = random_spec st s dir in
            let src = (S.ctx s dir).Ctx.src.Ctx.func in
            if not (armed_engines_agree src ~args:e.default_args spec) then
              Alcotest.failf "%s seed %d: engines disagree on an armed run (%d sites)"
                e.benchmark seed (List.length spec.sites))
          [ Ctx.Base_to_opt; Ctx.Opt_to_base ]
      done)
    (List.filteri (fun i _ -> i < 2) Corpus.Kernels.all)

let prop_armed_engines_agree =
  QCheck.Test.make ~count:100 ~name:"armed runs (random sites, guards, faults) equal across engines"
    QCheck.(pair Gen_ir.arb_func (make ~print:string_of_int Gen.(int_bound 1_000_000)))
    (fun (f0, seed) ->
      let s = S.create (P.to_fbase f0) in
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun dir ->
          let spec = random_spec st s dir in
          let src = (S.ctx s dir).Ctx.src.Ctx.func in
          List.for_all
            (fun args ->
              armed_engines_agree src ~args spec
              || QCheck.Test.fail_reportf "engines disagree (%d sites, args %s)"
                   (List.length spec.sites)
                   (String.concat "," (List.map string_of_int args)))
            [ [ 3; -2 ]; [ 7; 3 ] ])
        [ Ctx.Base_to_opt; Ctx.Opt_to_base ])

(* -------------------- allocation per armed step -------------------- *)

(* Words allocated per VM step by [Osr_runtime.Compiled.run_with_osr] with
   every forward point armed behind a never-firing guard, on the first four
   kernels.  The dispatch loop allocates about 0.02 here (events and the
   per-run tables); boxing the next point, an arithmetic result or a guard
   answer at each step costs 2 or more, which this bound rejects. *)
let words_per_step_bound = 0.25

let test_armed_allocation () =
  let runs =
    List.map
      (fun (e : Corpus.Kernels.entry) ->
        let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
        let s = S.create fbase in
        let cont =
          match S.transitions s Ctx.Base_to_opt with
          | t :: _ -> Osrir.Contfun.generate t.target ~landing:t.landing t.plan
          | [] -> Alcotest.fail "no feasible point"
        in
        let sites =
          List.map
            (fun at -> { Rt.at; guard = (fun _ -> false); cont })
            (Ctx.source_points (S.ctx s Ctx.Base_to_opt))
        in
        (Tinyvm.Compile.compile fbase, e.default_args, sites))
      (List.filteri (fun i _ -> i < 4) Corpus.Kernels.all)
  in
  let words = ref 0.0 and steps = ref 0 in
  List.iter
    (fun (prog, args, sites) ->
      let m = Compiled.of_program prog ~args in
      let minor0, promoted0, major0 = Gc.counters () in
      let res, _ = Rt.Compiled.run_with_osr m sites in
      let minor1, promoted1, major1 = Gc.counters () in
      words := !words +. (minor1 -. minor0) +. (major1 -. major0) -. (promoted1 -. promoted0);
      match res with
      | Ok o -> steps := !steps + o.Interp.steps
      | Error t -> Alcotest.failf "kernel trapped: %a" Interp.pp_trap t)
    runs;
  let per_step = !words /. float_of_int !steps in
  if per_step > words_per_step_bound then
    Alcotest.failf "armed compiled run allocates %.3f words per VM step (bound %.2f, OCaml %s)"
      per_step words_per_step_bound Sys.ocaml_version

(* -------------------- live-sink counters -------------------- *)

type counts = { c_steps : int; c_compiled : int; c_traps : int; c_returns : int }

let read_counts () =
  let v (c : Telemetry.counter) = c.Telemetry.value in
  {
    c_steps = v Interp.stat_steps;
    c_compiled = v Engine.stat_compiled_steps;
    c_traps = v Interp.stat_traps;
    c_returns = v Interp.stat_returns;
  }

(* The compiled engine adds its step counters once per exit of its run
   loop.  After armed runs that return, trap, run out of fuel or fire, the
   counters must equal the reference engine's and the run's own steps. *)
let test_live_counters () =
  let e = List.hd Corpus.Kernels.all in
  let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
  let s = S.create fbase in
  let t = List.hd (S.transitions s Ctx.Base_to_opt) in
  let cont = Osrir.Contfun.generate t.target ~landing:t.landing t.plan in
  let every_point g =
    List.map (fun p -> (p, cont, g)) (Ctx.source_points (S.ctx s Ctx.Base_to_opt))
  in
  let trapping =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  br head\n\
       head:\n\
      \  %i = phi [entry: 0], [body: %i2]\n\
      \  %c = icmp slt %i, %x\n\
      \  cbr %c, body, exit\n\
       body:\n\
      \  %i2 = add %i, 1\n\
      \  br head\n\
       exit:\n\
      \  %q = sdiv %i, %y\n\
      \  ret %q\n\
       }\n"
  in
  let trapping_sites =
    List.concat_map
      (fun (b : Ir.block) ->
        (b.Ir.term_id, cont, Never)
        :: List.map (fun (i : Ir.instr) -> (i.Ir.id, cont, Never)) b.Ir.body)
      trapping.Ir.blocks
  in
  let cases =
    [
      ("returns", fbase, e.default_args, None, every_point Never);
      ("traps", trapping, [ 20; 0 ], None, trapping_sites);
      ("out of fuel", fbase, e.default_args, Some 700, every_point Never);
      ("fires", fbase, e.default_args, None, [ (t.point, cont, On_arrival 0) ]);
    ]
  in
  let sink = Telemetry.create () in
  List.iter
    (fun (name, f, args, fuel, sites) ->
      let spec = { sites; hooks = No_hooks } in
      Telemetry.reset_counters ();
      let (on_ref, _), mr = Armed_ref.run ~telemetry:sink ?fuel f ~args spec in
      let want = read_counts () in
      Telemetry.reset_counters ();
      let (on_compiled, out), mc = Armed_compiled.run ~telemetry:sink ?fuel f ~args spec in
      let got = read_counts () in
      Telemetry.reset_counters ();
      check_equal name on_ref on_compiled;
      Alcotest.(check bool) (name ^ ": fired iff expected") (name = "fires")
        (out.Rt.transition <> None);
      let steps =
        match on_compiled with
        | Ok o -> o.Interp.steps
        | Error _ ->
            Alcotest.(check int) (name ^ ": source steps") mr.Interp.steps (Compiled.steps mc);
            Compiled.steps mc
      in
      Alcotest.(check int) (name ^ ": interp.steps = run steps") steps got.c_steps;
      Alcotest.(check int) (name ^ ": interp.steps = reference") want.c_steps got.c_steps;
      Alcotest.(check int) (name ^ ": interp.compiled_steps") got.c_steps got.c_compiled;
      Alcotest.(check int) (name ^ ": interp.traps") want.c_traps got.c_traps;
      Alcotest.(check int) (name ^ ": interp.returns") want.c_returns got.c_returns)
    cases

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
      t "unboxed binop evaluator on edge operands" test_binop_edge_operands;
      t "shift out of range traps on both engines" test_shift_trap;
      t "run_to_point budget leaves the machine running" test_run_to_point_budget;
      t "armed runs equal across engines on kernels" test_armed_random_kernels;
      t "armed compiled run allocation per step" test_armed_allocation;
      t "live-sink counters after armed runs" test_live_counters;
      q prop_engines_agree;
      q prop_osr_engines_agree;
      q prop_binop_agrees;
      q prop_armed_engines_agree;
    ] )
