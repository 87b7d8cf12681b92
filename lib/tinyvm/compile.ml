(** One-shot compiler from MiniIR to a flat, pre-resolved instruction array
    — the "bytecode" the compiled TinyVM engine dispatches over.

    The translation removes every per-step lookup the reference interpreter
    pays:

    - virtual registers become numbered frame slots ([int array] frame plus
      a definedness bitmap — no string hashing);
    - operands are pre-read into [Const n | Slot k | Undef];
    - block labels are resolved to program-counter indices at compile time
      (a branch to a missing block compiles to an op that traps only when
      the edge is actually taken, like the reference);
    - φ-nodes disappear from the instruction stream: each CFG edge carries
      a parallel-move sequence executed on the taken edge.

    One program point of the source function (a body instruction or a
    terminator) is exactly one program counter, so step counts, fuel
    accounting and [next_instr_id] agree with {!Interp} instruction by
    instruction. *)

module Ir = Miniir.Ir

(** A pre-resolved operand. [Undef] traps when read as an instruction
    operand; as a φ-move source it un-defines the destination (the
    reference interpreter's lazy poison). *)
type operand = Const of int | Slot of int | Undef

(** The parallel moves of one CFG edge, compiled from the target block's
    φ-nodes.  Semantics of the reference [enter_block]: all sources are
    read first (trapping, in φ order, on an undefined register), then all
    destinations are written.  [mv_dst.(j) = -1] when the φ has no result
    (the read still happens, for its trap).  [mv_bad >= 0] is the id of the
    first malformed φ entry (missing incoming for this edge, or a non-φ
    instruction in φ position): the reference traps [Undef_read] there
    after the earlier reads succeed, so the move list is truncated at that
    point and the engine raises after the read phase. *)
type moves = {
  mv_dst : int array;
  mv_src : operand array;
  mv_at : int array;  (** φ instruction id per move, for trap attribution *)
  mv_bad : int;  (** instr id to trap [Undef_read] after the reads; -1 = none *)
  mv_overlap : bool;
      (** some source slot is also a destination slot of this edge: the
          engine must buffer the read phase (swap/cycle case) *)
}

type edge = { target_pc : int; moves : moves }

type jump = Jump of edge | Jump_missing of string

(** One compiled op.  The leading [int] of result-producing ops is the
    destination slot, -1 for none.  Trap attribution ids are not embedded:
    the engine reads them from {!program.ids} at the current pc. *)
type op =
  | Obinop of int * Ir.binop * operand * operand
  | Oicmp of int * Ir.icmp * operand * operand
  | Oselect of int * operand * operand * operand
  | Oalloca of int * int  (** dst, size *)
  | Oload of int * operand
  | Ostore of int * operand * operand  (** dst (the reference writes 0), value, addr *)
  | Ocall1 of int * (int -> int) * operand  (** a pure intrinsic of one argument *)
  | Ocall2 of int * (int -> int -> int) * operand * operand
      (** a pure intrinsic of two arguments *)
  | Ocall_event of int * string * operand array
  | Ocall_seed of int * operand  (** read_seed with its single argument *)
  | Ocall_bad_arity of string * operand array  (** args are read, then trap *)
  | Ocall_unknown of string * operand array  (** args are read, then trap *)
  | Otrap_undef  (** a φ in body position: the reference traps [Undef_read] *)
  | Obr of jump
  | Ocbr of operand * jump * jump
  | Oret of operand
  | Ounreachable of string  (** block label *)

type program = {
  func : Ir.func;  (** the source function, for [next_id] and diagnostics *)
  code : op array;
  ids : int array;  (** source program-point id per pc *)
  entry_pc : int;
  nslots : int;
  slots : (Ir.reg, int) Hashtbl.t;
  regs : Ir.reg array;  (** slot -> register name *)
  param_slots : int array;  (** slot of each function parameter, in order *)
  max_moves : int;  (** widest edge move list, for scratch sizing *)
}

let stat_compiles =
  Telemetry.counter ~group:"interp" "compiles" ~desc:"functions compiled to bytecode"

let stat_compiled_ops =
  Telemetry.counter ~group:"interp" "compiled_ops" ~desc:"bytecode ops emitted"

(* ------------------------------------------------------------------ *)

let slot_of (slots : (Ir.reg, int) Hashtbl.t) (next : int ref) (r : Ir.reg) : int =
  match Hashtbl.find_opt slots r with
  | Some k -> k
  | None ->
      let k = !next in
      incr next;
      Hashtbl.add slots r k;
      k

let operand_of slots next : Ir.value -> operand = function
  | Ir.Const n -> Const n
  | Ir.Undef -> Undef
  | Ir.Reg r -> Slot (slot_of slots next r)

(** Compile [f].  Total on any function with at least one block, verified
    or not: malformed shapes (missing blocks, φs in body position, missing
    φ incomings) compile to ops/moves that trap exactly where the reference
    interpreter does. *)
let compile ?(telemetry = Telemetry.null) (f : Ir.func) : program =
  Telemetry.with_span telemetry ~cat:"vm" "compile" @@ fun () ->
  ignore (Ir.entry f : Ir.block) (* same [Invalid_argument] as the reference on an empty function *);
  let slots : (Ir.reg, int) Hashtbl.t = Hashtbl.create 64 in
  let next = ref 0 in
  let param_slots = Array.of_list (List.map (slot_of slots next) f.params) in
  (* [find_block] resolves duplicate labels to the first block; mirror that. *)
  let block_tbl : (string, Ir.block) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      if not (Hashtbl.mem block_tbl b.label) then Hashtbl.add block_tbl b.label b)
    f.blocks;
  (* Pass 1: a pc for every body instruction and terminator; blocks keep
     their first occurrence's entry pc (φ-nodes get no pc). *)
  let entry_pcs : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let pc = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      if not (Hashtbl.mem entry_pcs b.label) then Hashtbl.add entry_pcs b.label !pc;
      pc := !pc + List.length b.body + 1)
    f.blocks;
  let size = !pc in
  let code = Array.make size (Ounreachable "<uninit>") in
  let ids = Array.make size (-1) in
  let max_moves = ref 0 in
  (* Per-edge parallel moves from the target block's φ-nodes. *)
  let compile_edge ~(pred : string) (target : string) : jump =
    match Hashtbl.find_opt block_tbl target with
    | None -> Jump_missing target
    | Some tb ->
        let dsts = ref [] and srcs = ref [] and ats = ref [] in
        let bad = ref (-1) in
        (try
           List.iter
             (fun (i : Ir.instr) ->
               match i.rhs with
               | Ir.Phi incoming -> (
                   match List.assoc_opt pred incoming with
                   | None ->
                       bad := i.id;
                       raise Exit
                   | Some v ->
                       dsts :=
                         (match i.result with
                         | Some r -> slot_of slots next r
                         | None -> -1)
                         :: !dsts;
                       srcs := operand_of slots next v :: !srcs;
                       ats := i.id :: !ats)
               | _ ->
                   bad := i.id;
                   raise Exit)
             tb.phis
         with Exit -> ());
        let mv_dst = Array.of_list (List.rev !dsts) in
        let mv_src = Array.of_list (List.rev !srcs) in
        let mv_at = Array.of_list (List.rev !ats) in
        let mv_overlap =
          Array.exists
            (function
              | Slot k -> Array.exists (fun d -> d = k) mv_dst
              | Const _ | Undef -> false)
            mv_src
        in
        max_moves := max !max_moves (Array.length mv_dst);
        Jump
          {
            target_pc = Hashtbl.find entry_pcs tb.label;
            moves = { mv_dst; mv_src; mv_at; mv_bad = !bad; mv_overlap };
          }
  in
  (* Pass 2: emit. *)
  let emit id op =
    code.(!pc) <- op;
    ids.(!pc) <- id;
    incr pc
  in
  pc := 0;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          let dst = match i.result with Some r -> slot_of slots next r | None -> -1 in
          let v = operand_of slots next in
          let op =
            match i.rhs with
            | Ir.Binop (op, a, b) -> Obinop (dst, op, v a, v b)
            | Ir.Icmp (op, a, b) -> Oicmp (dst, op, v a, v b)
            | Ir.Select (c, t, e) -> Oselect (dst, v c, v t, v e)
            | Ir.Alloca n -> Oalloca (dst, n)
            | Ir.Load a -> Oload (dst, v a)
            | Ir.Store (x, a) -> Ostore (dst, v x, v a)
            | Ir.Call (name, args) -> (
                let ops = Array.of_list (List.map v args) in
                match (ops, Passes.Fold.intrinsic1 name, Passes.Fold.intrinsic2 name) with
                | [| a |], Some f, _ -> Ocall1 (dst, f, a)
                | [| a; b |], _, Some f -> Ocall2 (dst, f, a, b)
                | _ -> (
                    (* a pure intrinsic at a wrong arity traps like an
                       unknown one *)
                    match name with
                    | "print" | "emit" | "checkpoint" -> Ocall_event (dst, name, ops)
                    | "read_seed" ->
                        if Array.length ops = 1 then Ocall_seed (dst, ops.(0))
                        else Ocall_bad_arity (name, ops)
                    | _ -> Ocall_unknown (name, ops)))
            | Ir.Phi _ -> Otrap_undef
          in
          emit i.id op)
        b.body;
      let term =
        match b.term with
        | Ir.Br l -> Obr (compile_edge ~pred:b.label l)
        | Ir.Cbr (c, t, e) ->
            Ocbr
              ( operand_of slots next c,
                compile_edge ~pred:b.label t,
                compile_edge ~pred:b.label e )
        | Ir.Ret v -> Oret (operand_of slots next v)
        | Ir.Unreachable -> Ounreachable b.label
      in
      emit b.term_id term)
    f.blocks;
  let regs = Array.make (max 1 !next) "" in
  Hashtbl.iter (fun r k -> regs.(k) <- r) slots;
  Telemetry.bump telemetry stat_compiles;
  Telemetry.add telemetry stat_compiled_ops size;
  {
    func = f;
    code;
    ids;
    entry_pc = 0;
    nslots = !next;
    slots;
    regs;
    param_slots;
    max_moves = !max_moves;
  }

let slot_of_reg (p : program) (r : Ir.reg) : int option = Hashtbl.find_opt p.slots r
