(** Tests for the optimization passes: each preserves observable behaviour
    on random programs, does what it claims on targeted inputs, and records
    coherent CodeMapper actions. *)

module Ir = Miniir.Ir
module Verifier = Miniir.Verifier
module Interp = Tinyvm.Interp
module P = Passes.Pass_manager
module CM = Passes.Code_mapper
module AM = Passes.Analysis_manager

let parse = Miniir.Ir_parser.parse_func

(* Run one pass on its own the way the pass manager does: on a function
   that verifies, reading the index and dominators of that verification. *)
let run_pass ~(mapper : CM.t) (run : mapper:CM.t -> am:AM.t -> Ir.func -> bool) (f : Ir.func) :
    bool =
  match Verifier.verify f with
  | Ok (index, dom) -> run ~mapper ~am:(AM.create ~telemetry:Telemetry.null index dom) f
  | Error es ->
      Alcotest.failf "input does not verify: %a" (Fmt.list ~sep:Fmt.cut Verifier.pp_error) es

let run_int f args =
  match Interp.run f ~args with
  | Ok o -> o.Interp.ret
  | Error t -> Alcotest.failf "trap: %a" Interp.pp_trap t

(* -------------------- mem2reg -------------------- *)

let test_mem2reg_promotes () =
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  store 0, %s\n\
      \  cbr %x, a, b\n\
       a:\n\
      \  store 1, %s\n\
      \  br join\n\
       b:\n\
      \  store 2, %s\n\
      \  br join\n\
       join:\n\
      \  %v = load %s\n\
      \  ret %v\n\
       }\n"
  in
  let g = P.to_fbase f in
  Alcotest.(check int) "no allocas left" 0
    (List.length
       (List.filter (fun (i : Ir.instr) -> match i.rhs with Ir.Alloca _ -> true | _ -> false)
          (Ir.all_instrs g)));
  Alcotest.(check int) "phi inserted at join" 1 (List.length (Ir.block_exn g "join").phis);
  Alcotest.(check int) "then-value" 1 (run_int g [ 5 ]);
  Alcotest.(check int) "else-value" 2 (run_int g [ 0 ])

let test_mem2reg_keeps_escaping () =
  (* The address itself is stored elsewhere: not promotable. *)
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  %p = alloca\n\
      \  store %s, %p\n\
      \  store %x, %s\n\
      \  %q = load %p\n\
      \  %v = load %q\n\
      \  ret %v\n\
       }\n"
  in
  let g = P.to_fbase f in
  Alcotest.(check bool) "escaping alloca survives" true
    (List.exists (fun (i : Ir.instr) -> match i.rhs with Ir.Alloca _ -> true | _ -> false)
       (Ir.all_instrs g));
  Alcotest.(check int) "still correct" 9 (run_int g [ 9 ])

(* Differential: the one-scan mem2reg against the per-slot-rescan
   reference: the same return value and byte-identical IR text. *)
let mem2reg_agrees (f : Ir.func) : bool =
  let run m2r =
    let g = Ir.clone_func f in
    let changed = m2r g in
    (changed, Ir.func_to_string g)
  in
  let reference = run (fun g -> Mem2reg_ref.run g) in
  reference = run (fun g -> Passes.Mem2reg.run g)

let test_mem2reg_matches_reference_corpus () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let raw, _ = Corpus.Dsl.lower e.kernel in
      Alcotest.(check bool) (e.benchmark ^ " alloca form agrees") true (mem2reg_agrees raw))
    Corpus.Kernels.all;
  let conts = Lazy.force Kernel_transitions.every_20th in
  Alcotest.(check bool) "some continuations" true (conts <> []);
  List.iter
    (fun (t : Kernel_transitions.transition) ->
      let demoted = (Osrir.Contfun.generate ~promote:false t.target ~landing:t.landing t.plan).fto in
      Alcotest.(check bool) (t.name ^ " continuation agrees") true (mem2reg_agrees demoted))
    conts

let prop_mem2reg_matches_reference =
  QCheck.Test.make ~count:200 ~name:"mem2reg matches the rescan reference" Gen_ir.arb_func
    (fun f ->
      mem2reg_agrees f
      || QCheck.Test.fail_reportf "mem2reg differs from the reference on@.%s"
           (Ir.func_to_string f))

(* A hand-written mem2reg case: the reference agrees, the IR text is as
   given, the result verifies, and [cases] hold before and after. *)
let check_mem2reg ~ir ~cases src =
  let f = parse src in
  Alcotest.(check bool) "agrees with reference" true (mem2reg_agrees f);
  List.iter (fun (args, want) -> Alcotest.(check int) "input semantics" want (run_int f args)) cases;
  Alcotest.(check bool) "changed" true (Passes.Mem2reg.run f);
  Verifier.verify_exn f;
  Alcotest.(check string) "ir" ir (Ir.func_to_string f);
  List.iter (fun (args, want) -> Alcotest.(check int) "semantics" want (run_int f args)) cases

(* The slot is only ever re-stored with its own value inside the loop: the
   header and latch φs read each other and nothing else reads them.  A
   dead φ cycle is kept. *)
let test_mem2reg_dead_phi_cycle () =
  check_mem2reg
    ~ir:
      {|func @f(%x) {
entry:
  br head  ; #0
head:
  %i = phi [entry: 0], [latch: %i2]  ; #4
  %s.phi.1 = phi [entry: 0], [latch: %s.phi.0]  ; #15
  %c = icmp slt %i, %x  ; #5
  cbr %c, body, exit  ; #3
body:
  %e = icmp eq %i, 3  ; #7
  cbr %e, then, latch  ; #6
then:
  br latch  ; #8
latch:
  %s.phi.0 = phi [body: %s.phi.1], [then: %s.phi.1]  ; #14
  %i2 = add %i, 1  ; #12
  br head  ; #11
exit:
  ret %i  ; #13
}
|}
    ~cases:[ ([ 5 ], 5); ([ 0 ], 0) ]
    "func @f(%x) {\n\
     entry:\n\
    \  %s = alloca\n\
    \  store 0, %s\n\
    \  br head\n\
     head:\n\
    \  %i = phi [entry: 0], [latch: %i2]\n\
    \  %c = icmp slt %i, %x\n\
    \  cbr %c, body, exit\n\
     body:\n\
    \  %e = icmp eq %i, 3\n\
    \  cbr %e, then, latch\n\
     then:\n\
    \  %v = load %s\n\
    \  store %v, %s\n\
    \  br latch\n\
     latch:\n\
    \  %i2 = add %i, 1\n\
    \  br head\n\
     exit:\n\
    \  ret %i\n\
     }\n"

(* Two diamonds store to the slot and nothing loads it afterwards: the
   second join's φ is unused, and dropping it frees the first join's. *)
let test_mem2reg_phi_chain_pruned () =
  check_mem2reg
    ~ir:
      {|func @f(%x, %y) {
entry:
  cbr %x, a1, b1  ; #0
a1:
  br j1  ; #2
b1:
  br j1  ; #4
j1:
  cbr %y, a2, j2  ; #6
a2:
  br j2  ; #7
j2:
  ret %x  ; #9
}
|}
    ~cases:[ ([ 1; 1 ], 1); ([ 0; 0 ], 0) ]
    "func @f(%x, %y) {\n\
     entry:\n\
    \  %s = alloca\n\
    \  cbr %x, a1, b1\n\
     a1:\n\
    \  store 1, %s\n\
    \  br j1\n\
     b1:\n\
    \  store 2, %s\n\
    \  br j1\n\
     j1:\n\
    \  cbr %y, a2, j2\n\
     a2:\n\
    \  store 3, %s\n\
    \  br j2\n\
     j2:\n\
    \  ret %x\n\
     }\n"

(* Stored, never loaded: the slot and its stores disappear. *)
let test_mem2reg_store_only () =
  check_mem2reg
    ~ir:
      {|func @f(%x) {
entry:
  %d = add %x, %x  ; #3
  ret %d  ; #0
}
|}
    ~cases:[ ([ 4 ], 8) ]
    "func @f(%x) {\n\
     entry:\n\
    \  %s = alloca\n\
    \  store %x, %s\n\
    \  %d = add %x, %x\n\
    \  store %d, %s\n\
    \  ret %d\n\
     }\n"

(* A load before any store reads [undef]. *)
let test_mem2reg_load_before_store () =
  check_mem2reg
    ~ir:
      {|func @f(%x) {
entry:
  %w = add undef, %x  ; #3
  ret %w  ; #0
}
|}
    ~cases:[]
    "func @f(%x) {\n\
     entry:\n\
    \  %s = alloca\n\
    \  %v = load %s\n\
    \  %w = add %v, %x\n\
    \  store %w, %s\n\
    \  %z = load %s\n\
    \  ret %z\n\
     }\n"

(* [%a] escapes through an add; [%b] next to it is still promoted. *)
let test_mem2reg_escaping_next_to_promotable () =
  check_mem2reg
    ~ir:
      {|func @f(%x) {
entry:
  %a = alloca  ; #1
  store %x, %a  ; #4
  %q = add %a, 0  ; #5
  %u = load %q  ; #6
  %r = add %u, 7  ; #8
  ret %r  ; #0
}
|}
    ~cases:[ ([ 2 ], 9) ]
    "func @f(%x) {\n\
     entry:\n\
    \  %a = alloca\n\
    \  %b = alloca\n\
    \  store 7, %b\n\
    \  store %x, %a\n\
    \  %q = add %a, 0\n\
    \  %u = load %q\n\
    \  %w = load %b\n\
    \  %r = add %u, %w\n\
    \  ret %r\n\
     }\n"

(* -------------------- individual pass behaviours -------------------- *)

let test_constprop_folds () =
  let f = parse "func @f(%x) {\nentry:\n  %a = add 2, 3\n  %b = mul %a, 4\n  %c = add %b, %x\n  ret %c\n}\n" in
  let m = CM.create () in
  let changed = run_pass ~mapper:m Passes.Constprop.run f in
  Alcotest.(check bool) "changed" true changed;
  Verifier.verify_exn f;
  Alcotest.(check int) "a and b folded away" 1 (Ir.instr_count f);
  Alcotest.(check int) "semantics" 21 (run_int f [ 1 ]);
  let counts = CM.counts m in
  Alcotest.(check int) "2 deletes" 2 counts.delete;
  Alcotest.(check int) "2 replaces" 2 counts.replace

let test_constprop_keeps_trapping_div () =
  let f = parse "func @f(%x) {\nentry:\n  %a = sdiv 1, 0\n  ret %a\n}\n" in
  let _ = run_pass ~mapper:(CM.create ()) Passes.Constprop.run f in
  (match Interp.run f ~args:[ 0 ] with
  | Error (Interp.Division_by_zero _) -> ()
  | r -> Alcotest.failf "div by zero must survive folding: %a" Interp.pp_result r)

let test_cse_dedups () =
  let f =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  %a = add %x, %y\n\
      \  %b = add %x, %y\n\
      \  %c = mul %a, %b\n\
      \  ret %c\n\
       }\n"
  in
  let m = CM.create () in
  let _ = run_pass ~mapper:m Passes.Cse.run f in
  Verifier.verify_exn f;
  Alcotest.(check int) "one add left" 2 (Ir.instr_count f);
  Alcotest.(check int) "semantics" 25 (run_int f [ 2; 3 ]);
  Alcotest.(check (list string)) "b aliases a" [ "a"; "b" ]
    (List.sort compare (CM.base_aliases_of m "a"))

let test_cse_commutative () =
  let f =
    parse
      "func @f(%x, %y) {\nentry:\n  %a = add %x, %y\n  %b = add %y, %x\n  %c = sub %a, %b\n  ret %c\n}\n"
  in
  let _ = run_pass ~mapper:(CM.create ()) Passes.Cse.run f in
  Alcotest.(check int) "commutative add deduped" 2 (Ir.instr_count f)

let test_cse_load_generations () =
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  store %x, %s\n\
      \  %a = load %s\n\
      \  %b = load %s\n\
      \  store 9, %s\n\
      \  %c = load %s\n\
      \  %r1 = add %a, %b\n\
      \  %r = add %r1, %c\n\
      \  ret %r\n\
       }\n"
  in
  let _ = run_pass ~mapper:(CM.create ()) Passes.Cse.run f in
  Verifier.verify_exn f;
  (* %a and %b forward from the first store, and %c from the second — all
     three loads disappear while the generation check keeps %c at 9, not x.
     x=5: a=b=5, c=9 → 19. *)
  Alcotest.(check int) "semantics" 19 (run_int f [ 5 ]);
  let loads =
    List.length
      (List.filter (fun (i : Ir.instr) -> match i.rhs with Ir.Load _ -> true | _ -> false)
         (Ir.all_instrs f))
  in
  Alcotest.(check int) "all loads forwarded" 0 loads

let test_adce_removes_chains () =
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %d1 = add %x, 1\n\
      \  %d2 = mul %d1, 2\n\
      \  %d3 = add %d2, %d1\n\
      \  %keep = add %x, 5\n\
      \  ret %keep\n\
       }\n"
  in
  let m = CM.create () in
  let _ = run_pass ~mapper:m Passes.Adce.run f in
  Verifier.verify_exn f;
  Alcotest.(check int) "only keep remains" 1 (Ir.instr_count f);
  Alcotest.(check int) "3 deletions recorded" 3 (CM.counts m).delete

let test_adce_keeps_stores () =
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  %v = mul %x, 3\n\
      \  store %v, %s\n\
      \  %r = load %s\n\
      \  ret %r\n\
       }\n"
  in
  let _ = run_pass ~mapper:(CM.create ()) Passes.Adce.run f in
  Alcotest.(check int) "nothing removed" 4 (Ir.instr_count f);
  Alcotest.(check int) "semantics" 21 (run_int f [ 7 ])

let test_sccp_removes_unreachable () =
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %c = icmp eq 1, 1\n\
      \  cbr %c, live, dead\n\
       live:\n\
      \  %a = add %x, 1\n\
      \  br out\n\
       dead:\n\
      \  %b = mul %x, 100\n\
      \  br out\n\
       out:\n\
      \  %r = phi [live: %a], [dead: %b]\n\
      \  ret %r\n\
       }\n"
  in
  let m = CM.create () in
  let _ = run_pass ~mapper:m Passes.Sccp.run f in
  Verifier.verify_exn f;
  Alcotest.(check bool) "dead block removed" true (Ir.find_block f "dead" = None);
  Alcotest.(check int) "semantics" 6 (run_int f [ 5 ]);
  Alcotest.(check int) "no phi left" 0 (Ir.phi_count f)

let test_sccp_through_phi () =
  (* Constant reaches through a φ whose incomings agree. *)
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  cbr %x, a, b\n\
       a:\n\
      \  br join\n\
       b:\n\
      \  br join\n\
       join:\n\
      \  %v = phi [a: 7], [b: 7]\n\
      \  %r = add %v, %x\n\
      \  ret %r\n\
       }\n"
  in
  let _ = run_pass ~mapper:(CM.create ()) Passes.Sccp.run f in
  Verifier.verify_exn f;
  Alcotest.(check int) "phi folded to 7" 0 (Ir.phi_count f);
  Alcotest.(check int) "semantics" 10 (run_int f [ 3 ])

let test_loop_canon_inserts_preheader () =
  (* Two outside predecessors branch straight to the header. *)
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  cbr %x, p1, p2\n\
       p1:\n\
      \  br head\n\
       p2:\n\
      \  br head\n\
       head:\n\
      \  %i = phi [p1: 0], [p2: 5], [head: %i2]\n\
      \  %i2 = add %i, 1\n\
      \  %c = icmp slt %i2, 10\n\
      \  cbr %c, head, exit\n\
       exit:\n\
      \  ret %i2\n\
       }\n"
  in
  let m = CM.create () in
  let _ = run_pass ~mapper:m Passes.Loop_canon.run f in
  Verifier.verify_exn f;
  let index = Miniir.Func_index.make f in
  let li = Miniir.Loops.compute index (Miniir.Dom.compute index.cfg) in
  List.iter
    (fun l ->
      Alcotest.(check bool) "loop has preheader" true (Miniir.Loops.preheader f l <> None))
    li.Miniir.Loops.loops;
  (* The merge φ for the two outside values lives in the preheader now. *)
  Alcotest.(check bool) "added a merge phi" true ((CM.counts m).add >= 1);
  Alcotest.(check int) "semantics x=1" 10 (run_int f [ 1 ]);
  Alcotest.(check int) "semantics x=0" 10 (run_int f [ 0 ])

let test_licm_hoists () =
  let f =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  br head\n\
       head:\n\
      \  %i = phi [entry: 0], [body: %i2]\n\
      \  %c = icmp slt %i, %x\n\
      \  cbr %c, body, exit\n\
       body:\n\
      \  %inv = mul %y, 7\n\
      \  %i2 = add %i, %inv\n\
      \  br head\n\
       exit:\n\
      \  ret %i\n\
       }\n"
  in
  let m = CM.create () in
  let _ = run_pass ~mapper:m Passes.Loop_canon.run f in
  let changed = run_pass ~mapper:m Passes.Licm.run f in
  Verifier.verify_exn f;
  Alcotest.(check bool) "hoisted" true changed;
  Alcotest.(check bool) "mul left the body" true
    (List.for_all
       (fun (i : Ir.instr) -> match i.rhs with Ir.Binop (Ir.Mul, _, _) -> false | _ -> true)
       (Ir.block_exn f "body").body);
  Alcotest.(check bool) "hoist recorded" true ((CM.counts m).hoist >= 1);
  Alcotest.(check int) "semantics" 14 (run_int f [ 10; 2 ])

let test_licm_respects_memory () =
  (* A load must not be hoisted across the loop's store. *)
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  store 0, %s\n\
      \  br head\n\
       head:\n\
      \  %i = phi [entry: 0], [body: %i2]\n\
      \  %c = icmp slt %i, %x\n\
      \  cbr %c, body, exit\n\
       body:\n\
      \  %v = load %s\n\
      \  %v2 = add %v, 1\n\
      \  store %v2, %s\n\
      \  %i2 = add %i, 1\n\
      \  br head\n\
       exit:\n\
      \  %r = load %s\n\
      \  ret %r\n\
       }\n"
  in
  let _ = run_pass ~mapper:(CM.create ()) Passes.Loop_canon.run f in
  let _ = run_pass ~mapper:(CM.create ()) Passes.Licm.run f in
  Verifier.verify_exn f;
  Alcotest.(check bool) "load stays in body" true
    (List.exists
       (fun (i : Ir.instr) -> match i.rhs with Ir.Load _ -> true | _ -> false)
       (Ir.block_exn f "body").body);
  Alcotest.(check int) "counting via memory" 6 (run_int f [ 6 ])

let test_licm_no_div_speculation () =
  (* The division block does not dominate the exit (guarded): no hoist. *)
  let f =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  br head\n\
       head:\n\
      \  %i = phi [entry: 0], [latch: %i2]\n\
      \  %c = icmp slt %i, %x\n\
      \  cbr %c, guard, exit\n\
       guard:\n\
      \  %nz = icmp ne %y, 0\n\
      \  cbr %nz, divb, latch\n\
       divb:\n\
      \  %q = sdiv 100, %y\n\
      \  br latch\n\
       latch:\n\
      \  %i2 = add %i, 1\n\
      \  br head\n\
       exit:\n\
      \  ret %i\n\
       }\n"
  in
  let _ = run_pass ~mapper:(CM.create ()) Passes.Loop_canon.run f in
  let _ = run_pass ~mapper:(CM.create ()) Passes.Licm.run f in
  Verifier.verify_exn f;
  Alcotest.(check bool) "sdiv stays guarded" true
    (List.exists
       (fun (i : Ir.instr) ->
         match i.rhs with Ir.Binop (Ir.Sdiv, _, _) -> true | _ -> false)
       (Ir.block_exn f "divb").body);
  (* y = 0 must still terminate without trapping. *)
  Alcotest.(check int) "no trap with zero divisor" 3 (run_int f [ 3; 0 ])

let test_sink_moves_into_branch () =
  let f =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  %heavy = mul %y, %y\n\
      \  cbr %x, use, skip\n\
       use:\n\
      \  %r = add %heavy, 1\n\
      \  ret %r\n\
       skip:\n\
      \  ret 0\n\
       }\n"
  in
  let m = CM.create () in
  let changed = run_pass ~mapper:m Passes.Sink.run f in
  Verifier.verify_exn f;
  Alcotest.(check bool) "sunk" true changed;
  Alcotest.(check bool) "mul moved to use block" true
    (List.exists
       (fun (i : Ir.instr) -> match i.rhs with Ir.Binop (Ir.Mul, _, _) -> true | _ -> false)
       (Ir.block_exn f "use").body);
  Alcotest.(check int) "sink recorded" 1 (CM.counts m).sink;
  Alcotest.(check int) "semantics taken" 10 (run_int f [ 1; 3 ]);
  Alcotest.(check int) "semantics skipped" 0 (run_int f [ 0; 3 ])

let test_lcssa_inserts_phi () =
  let f =
    parse
      "func @f(%x) {\n\
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
      \  %r = mul %i, 10\n\
      \  ret %r\n\
       }\n"
  in
  let m = CM.create () in
  let changed = run_pass ~mapper:m Passes.Lcssa.run f in
  Verifier.verify_exn f;
  Alcotest.(check bool) "lcssa changed" true changed;
  Alcotest.(check bool) "exit has a phi" true ((Ir.block_exn f "exit").phis <> []);
  Alcotest.(check int) "semantics" 50 (run_int f [ 5 ])

(* LCSSA edge cases: each checks the rewritten IR, that behaviour is kept,
   and the exact mapper history. *)

let action_str = function
  | CM.Add { id; block } -> Printf.sprintf "add #%d in %s" id block
  | CM.Replace { old_value; new_value; inst } ->
      Printf.sprintf "replace %s by %s in %s" (Ir.value_to_string old_value)
        (Ir.value_to_string new_value)
        (match inst with Some id -> Printf.sprintf "#%d" id | None -> "all")
  | CM.Delete _ | CM.Hoist _ | CM.Sink _ -> "unexpected action"

(* Run LCSSA on [src]; check the change flag, the IR text, the mapper
   history, and that [cases] (args, result) hold before and after. *)
let check_lcssa ~changed ~ir ~actions ~cases src =
  let f = parse src in
  List.iter (fun (args, want) -> Alcotest.(check int) "input semantics" want (run_int f args)) cases;
  let m = CM.create () in
  let c = run_pass ~mapper:m Passes.Lcssa.run f in
  Verifier.verify_exn f;
  Alcotest.(check bool) "changed" changed c;
  Alcotest.(check string) "ir" ir (Ir.func_to_string f);
  Alcotest.(check (list string)) "actions" actions (List.map action_str (CM.actions_in_order m));
  List.iter (fun (args, want) -> Alcotest.(check int) "semantics" want (run_int f args)) cases

let test_lcssa_nested_escape () =
  (* Outer loop first: its exit gets a φ of %v; then the inner loop's exit
     (the outer latch) gets one, and the outer φ is rewritten to read it. *)
  check_lcssa ~changed:true
    ~ir:
      {|func @f(%n) {
entry:
  br outer  ; #0
outer:
  %i = phi [entry: 0], [olatch: %i2]  ; #2
  br inner  ; #1
inner:
  %j = phi [outer: 0], [inner: %j2]  ; #4
  %v = add %i, %j  ; #5
  %j2 = add %j, 1  ; #6
  %c = icmp slt %j2, 3  ; #7
  cbr %c, inner, olatch  ; #3
olatch:
  %v.lcssa.1 = phi [inner: %v]  ; #13
  %i2 = add %i, 1  ; #9
  %d = icmp slt %i2, %n  ; #10
  cbr %d, outer, exit  ; #8
exit:
  %v.lcssa.0 = phi [olatch: %v.lcssa.1]  ; #12
  ret %v.lcssa.0  ; #11
}
|}
    ~actions:
      [
        "add #12 in exit";
        "replace %v by %v.lcssa.0 in #11";
        "add #13 in olatch";
        "replace %v by %v.lcssa.1 in #12";
      ]
    ~cases:[ ([ 3 ], 4); ([ 1 ], 2) ]
    "func @f(%n) {\n\
     entry:\n\
    \  br outer\n\
     outer:\n\
    \  %i = phi [entry: 0], [olatch: %i2]\n\
    \  br inner\n\
     inner:\n\
    \  %j = phi [outer: 0], [inner: %j2]\n\
    \  %v = add %i, %j\n\
    \  %j2 = add %j, 1\n\
    \  %c = icmp slt %j2, 3\n\
    \  cbr %c, inner, olatch\n\
     olatch:\n\
    \  %i2 = add %i, 1\n\
    \  %d = icmp slt %i2, %n\n\
    \  cbr %d, outer, exit\n\
     exit:\n\
    \  ret %v\n\
     }\n"

let test_lcssa_double_use () =
  (* One φ, and one replace action for the instruction naming %i twice. *)
  check_lcssa ~changed:true
    ~ir:
      {|func @f(%x) {
entry:
  br head  ; #0
head:
  %i = phi [entry: 0], [body: %i2]  ; #2
  %c = icmp slt %i, %x  ; #3
  cbr %c, body, exit  ; #1
body:
  %i2 = add %i, 1  ; #5
  br head  ; #4
exit:
  %i.lcssa.0 = phi [head: %i]  ; #8
  %r = mul %i.lcssa.0, %i.lcssa.0  ; #7
  ret %r  ; #6
}
|}
    ~actions:[ "add #8 in exit"; "replace %i by %i.lcssa.0 in #7" ]
    ~cases:[ ([ 5 ], 25); ([ 0 ], 0) ]
    "func @f(%x) {\n\
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
    \  %r = mul %i, %i\n\
    \  ret %r\n\
     }\n"

let test_lcssa_terminator_uses () =
  (* The exit's [cbr] and the [ret] of a block it dominates are rewritten;
     the mapper names each terminator by its id. *)
  check_lcssa ~changed:true
    ~ir:
      {|func @f(%x) {
entry:
  br head  ; #0
head:
  %i = phi [entry: 0], [body: %i2]  ; #2
  %e = icmp eq %i, 4  ; #3
  %c = icmp slt %i, %x  ; #4
  cbr %c, body, exit  ; #1
body:
  %i2 = add %i, 1  ; #6
  br head  ; #5
exit:
  %e.lcssa.0 = phi [head: %e]  ; #10
  %i.lcssa.1 = phi [head: %i]  ; #11
  cbr %e.lcssa.0, a, b  ; #7
a:
  ret %i.lcssa.1  ; #8
b:
  ret 0  ; #9
}
|}
    ~actions:
      [
        "add #10 in exit";
        "replace %e by %e.lcssa.0 in #7";
        "add #11 in exit";
        "replace %i by %i.lcssa.1 in #8";
      ]
    ~cases:[ ([ 4 ], 4); ([ 2 ], 0); ([ 0 ], 0) ]
    "func @f(%x) {\n\
     entry:\n\
    \  br head\n\
     head:\n\
    \  %i = phi [entry: 0], [body: %i2]\n\
    \  %e = icmp eq %i, 4\n\
    \  %c = icmp slt %i, %x\n\
    \  cbr %c, body, exit\n\
     body:\n\
    \  %i2 = add %i, 1\n\
    \  br head\n\
     exit:\n\
    \  cbr %e, a, b\n\
     a:\n\
    \  ret %i\n\
     b:\n\
    \  ret 0\n\
     }\n"

(* [exit] is also reached from [entry], so no single φ can serve it: the
   φ use of %i there stays as it is. *)
let test_lcssa_shared_exit () =
  let src =
    "func @f(%x) {\n\
     entry:\n\
    \  %z = icmp eq %x, 0\n\
    \  cbr %z, exit, head\n\
     head:\n\
    \  %i = phi [entry: 0], [body: %i2]\n\
    \  %c = icmp slt %i, %x\n\
    \  cbr %c, body, exit\n\
     body:\n\
    \  %i2 = add %i, 1\n\
    \  br head\n\
     exit:\n\
    \  %r = phi [entry: 7], [head: %i]\n\
    \  ret %r\n\
     }\n"
  in
  check_lcssa ~changed:false ~ir:(Ir.func_to_string (parse src)) ~actions:[]
    ~cases:[ ([ 0 ], 7); ([ 3 ], 3) ] src

(* Differential: the per-loop-table LCSSA against the whole-function-rescan
   reference, on the IR LCSSA sees in the standard pipeline. *)
let lcssa_agrees (f : Ir.func) : bool =
  let pre =
    (P.apply ~pipeline:[ P.constprop; P.sccp; P.cse; P.loop_canon ] f).fopt
  in
  let run lcssa =
    let g = Ir.clone_func pre in
    let m = CM.create () in
    let changed = lcssa ~mapper:m g in
    (changed, Ir.func_to_string g, CM.actions_in_order m)
  in
  let reference = run (fun ~mapper g -> Lcssa_ref.run ~mapper g) in
  reference = run (fun ~mapper g -> run_pass ~mapper Passes.Lcssa.run g)

let test_lcssa_matches_reference_corpus () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
      Alcotest.(check bool) (e.benchmark ^ " agrees") true (lcssa_agrees fbase))
    Corpus.Kernels.all;
  List.iter
    (fun (prof : Corpus.Spec_c.profile) ->
      List.iter
        (fun (sf : Corpus.Spec_c.study_func) ->
          Alcotest.(check bool) (sf.fbase.Ir.fname ^ " agrees") true (lcssa_agrees sf.fbase))
        (Corpus.Spec_c.functions_of prof))
    Corpus.Spec_c.profiles

let prop_lcssa_matches_reference =
  QCheck.Test.make ~count:200 ~name:"LCSSA matches the rescan reference" Gen_ir.arb_func
    (fun f0 ->
      lcssa_agrees (P.to_fbase f0)
      || QCheck.Test.fail_reportf "LCSSA differs from the reference on@.%s"
           (Ir.func_to_string (P.to_fbase f0)))

(* -------------------- pipeline + properties -------------------- *)

let test_pipeline_end_to_end () =
  let f =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  store 0, %s\n\
      \  %k = add 2, 3\n\
      \  br head\n\
       head:\n\
      \  %i = phi [entry: 0], [body: %i2]\n\
      \  %c = icmp slt %i, %x\n\
      \  cbr %c, body, exit\n\
       body:\n\
      \  %inv = mul %y, %k\n\
      \  %cur = load %s\n\
      \  %nxt = add %cur, %inv\n\
      \  store %nxt, %s\n\
      \  %i2 = add %i, 1\n\
      \  br head\n\
       exit:\n\
      \  %r = load %s\n\
      \  ret %r\n\
       }\n"
  in
  let r = P.apply f in
  Alcotest.(check int) "fbase untouched" (run_int f [ 4; 2 ]) (run_int r.fbase [ 4; 2 ]);
  Alcotest.(check int) "fopt equivalent" (run_int f [ 4; 2 ]) (run_int r.fopt [ 4; 2 ]);
  (* The pipeline should have done something: k folded, inv hoisted. *)
  Alcotest.(check bool) "actions recorded" true (CM.actions_in_order r.mapper <> []);
  Alcotest.(check bool) "per-pass stats present" true (List.length r.per_pass >= 8)

let pass_preserves name (pass : P.pass) =
  QCheck.Test.make ~count:60 ~name Gen_ir.arb_func_with_args (fun (f0, args) ->
      let f = P.to_fbase f0 in
      let g = Ir.clone_func f in
      let _ = run_pass ~mapper:(CM.create ()) pass.run g in
      (match Verifier.verify g with
      | Ok _ -> ()
      | Error es ->
          QCheck.Test.fail_reportf "verify after %s: %a@.%s" pass.pname
            (Fmt.list ~sep:Fmt.cut Verifier.pp_error)
            es (Ir.func_to_string g));
      let a = Interp.run ~fuel:1_000_000 f ~args in
      let b = Interp.run ~fuel:1_000_000 g ~args in
      Interp.equal_result a b
      || QCheck.Test.fail_reportf "%s changed behaviour: %a vs %a@.%s" pass.pname
           Interp.pp_result a Interp.pp_result b (Ir.func_to_string g))

let prop_mem2reg_preserves =
  QCheck.Test.make ~count:80 ~name:"mem2reg preserves behaviour" Gen_ir.arb_func_with_args
    (fun (f, args) ->
      let g = P.to_fbase f in
      Interp.equal_result (Interp.run ~fuel:1_000_000 f ~args) (Interp.run ~fuel:1_000_000 g ~args))

let prop_cp = pass_preserves "CP preserves behaviour" P.constprop
let prop_sccp = pass_preserves "SCCP preserves behaviour" P.sccp
let prop_cse = pass_preserves "CSE preserves behaviour" P.cse
let prop_adce = pass_preserves "ADCE preserves behaviour" P.adce
let prop_lc = pass_preserves "LoopCanon preserves behaviour" P.loop_canon
let prop_lcssa = pass_preserves "LCSSA preserves behaviour" P.lcssa
let prop_sink = pass_preserves "Sink preserves behaviour" P.sink

let prop_licm =
  QCheck.Test.make ~count:60 ~name:"LC+LICM preserves behaviour" Gen_ir.arb_func_with_args
    (fun (f0, args) ->
      let f = P.to_fbase f0 in
      let g = Ir.clone_func f in
      let _ = run_pass ~mapper:(CM.create ()) Passes.Loop_canon.run g in
      let _ = run_pass ~mapper:(CM.create ()) Passes.Licm.run g in
      (match Verifier.verify g with
      | Ok _ -> ()
      | Error es ->
          QCheck.Test.fail_reportf "verify: %a@.%s"
            (Fmt.list ~sep:Fmt.cut Verifier.pp_error)
            es (Ir.func_to_string g));
      Interp.equal_result (Interp.run ~fuel:1_000_000 f ~args)
        (Interp.run ~fuel:1_000_000 g ~args))

let prop_pipeline =
  QCheck.Test.make ~count:60 ~name:"full pipeline preserves behaviour"
    Gen_ir.arb_func_with_args (fun (f0, args) ->
      let f = P.to_fbase f0 in
      let r = P.apply f in
      List.for_all
        (fun args ->
          Interp.equal_result (Interp.run ~fuel:1_000_000 f ~args)
            (Interp.run ~fuel:1_000_000 r.fopt ~args))
        (args :: Gen_ir.sample_args))

(* ------------- the analyses each pass reads are fresh ------------- *)

module Dom = Miniir.Dom
module Loops = Miniir.Loops
module Func_index = Miniir.Func_index

(* [p], checking first that the index, dominators and loops it receives
   equal a fresh computation on its input; the first pass of a run that
   receives a stale one lands in [stale]. *)
let probed (stale : string option ref) (p : P.pass) : P.pass =
  {
    p with
    run =
      (fun ~mapper ~am f ->
        let index = Func_index.make f in
        let dom = Dom.compute index.cfg in
        let stale_now =
          List.filter_map
            (fun (what, fresh) -> if fresh then None else Some what)
            [ ("index", (AM.index am = index)); ("dominators", (AM.dom am = dom)); ("loops", (AM.loops am = Loops.compute index dom)) ]
        in
        if stale_now <> [] && !stale = None then
          stale :=
            Some (Printf.sprintf "%s receives stale %s" p.pname (String.concat ", " stale_now));
        p.run ~mapper ~am f);
  }

let stale_analysis (pipeline : P.pass list) (f : Ir.func) : string option =
  let stale = ref None in
  ignore (P.apply ~pipeline:(List.map (probed stale) pipeline) ~sandbox:false f : P.apply_result);
  !stale

let prop_pass_analyses_fresh =
  QCheck.Test.make ~count:60 ~name:"each pass reads freshly computed analyses" Gen_ir.arb_func
    (fun f0 ->
      let f = P.to_fbase f0 in
      match stale_analysis P.standard_pipeline f with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s@.%s" msg (Ir.func_to_string f))

let test_pass_analyses_fresh_kernels () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      Alcotest.(check (option string)) e.benchmark None
        (stale_analysis P.standard_pipeline (fst (Corpus.Dsl.to_fbase e.kernel))))
    Corpus.Kernels.all

(* A pass that changes the CFG but reports no change: it moves the entry
   block's terminator into a new block the entry falls through to.  With
   analyses cached across passes until a pass reports a change, the pass
   after it would read the dominators of the old CFG. *)
let quiet_split : P.pass =
  {
    P.pname = "quiet-split";
    run =
      (fun ~mapper:_ ~am:_ f ->
        let e = Ir.entry f in
        let label = "split" in
        let split =
          { Ir.label; phis = []; body = []; term = e.term; term_id = Ir.fresh_id f }
        in
        List.iter
          (fun s ->
            List.iter
              (fun (phi : Ir.instr) ->
                match phi.rhs with
                | Ir.Phi incoming ->
                    phi.rhs <-
                      Ir.Phi
                        (List.map
                           (fun (p, v) -> ((if String.equal p e.label then label else p), v))
                           incoming)
                | _ -> ())
              (Ir.block_exn f s).phis)
          (List.sort_uniq compare (Ir.successors e));
        e.term <- Ir.Br label;
        f.blocks <- e :: split :: List.tl f.blocks;
        false);
  }

let test_quiet_cfg_change () =
  let fbase, _ = Corpus.Dsl.to_fbase (Option.get (Corpus.Kernels.find "bzip2")).kernel in
  Alcotest.(check (option string)) "the pass after a quiet CFG change" None
    (stale_analysis [ P.cse; quiet_split; P.sink ] fbase)

let prop_pipeline_idempotent_ids =
  QCheck.Test.make ~count:40 ~name:"surviving instructions keep their ids"
    Gen_ir.arb_func (fun f0 ->
      let f = P.to_fbase f0 in
      let r = P.apply f in
      let base_ids =
        List.map (fun (i : Ir.instr) -> i.id) (Ir.all_instrs r.fbase)
      in
      List.for_all
        (fun (i : Ir.instr) ->
          List.mem i.id base_ids || CM.is_added r.mapper i.id)
        (Ir.all_instrs r.fopt))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let q test = QCheck_alcotest.to_alcotest test in
  ( "passes",
    [
      t "mem2reg promotes with phis" test_mem2reg_promotes;
      t "mem2reg keeps escaping allocas" test_mem2reg_keeps_escaping;
      t "mem2reg matches reference on corpus" test_mem2reg_matches_reference_corpus;
      t "mem2reg keeps a dead phi cycle" test_mem2reg_dead_phi_cycle;
      t "mem2reg prunes a phi chain" test_mem2reg_phi_chain_pruned;
      t "mem2reg drops a store-only slot" test_mem2reg_store_only;
      t "mem2reg load before store is undef" test_mem2reg_load_before_store;
      t "mem2reg escaping next to promotable" test_mem2reg_escaping_next_to_promotable;
      t "constprop folds chains" test_constprop_folds;
      t "constprop keeps trapping division" test_constprop_keeps_trapping_div;
      t "CSE dedups expressions" test_cse_dedups;
      t "CSE normalizes commutativity" test_cse_commutative;
      t "CSE load generations" test_cse_load_generations;
      t "ADCE removes dead chains" test_adce_removes_chains;
      t "ADCE keeps stores" test_adce_keeps_stores;
      t "SCCP removes unreachable blocks" test_sccp_removes_unreachable;
      t "SCCP folds through phis" test_sccp_through_phi;
      t "LoopCanon inserts preheaders" test_loop_canon_inserts_preheader;
      t "LICM hoists invariants" test_licm_hoists;
      t "LICM respects memory" test_licm_respects_memory;
      t "LICM does not speculate division" test_licm_no_div_speculation;
      t "Sink moves into branches" test_sink_moves_into_branch;
      t "LCSSA inserts exit phis" test_lcssa_inserts_phi;
      t "LCSSA value escaping nested loops" test_lcssa_nested_escape;
      t "LCSSA instruction using the value twice" test_lcssa_double_use;
      t "LCSSA terminator uses" test_lcssa_terminator_uses;
      t "LCSSA skips exits shared with outside" test_lcssa_shared_exit;
      t "LCSSA matches reference on corpus" test_lcssa_matches_reference_corpus;
      t "pipeline end to end" test_pipeline_end_to_end;
      q prop_mem2reg_preserves;
      q prop_mem2reg_matches_reference;
      q prop_cp;
      q prop_sccp;
      q prop_cse;
      q prop_adce;
      q prop_lc;
      q prop_lcssa;
      q prop_lcssa_matches_reference;
      q prop_sink;
      q prop_licm;
      q prop_pipeline;
      q prop_pipeline_idempotent_ids;
      t "each pass reads fresh analyses on the kernels" test_pass_analyses_fresh_kernels;
      t "a quiet CFG change leaves no stale dominators" test_quiet_cfg_change;
      q prop_pass_analyses_fresh;
    ] )
