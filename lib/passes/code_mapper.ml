open Import

(** The CodeMapper: records the five primitive IR-manipulation actions of
    Section 5.1 while a pass transforms a cloned function, and answers the
    queries the OSR machinery needs afterwards:

    {ol
    {- [add(inst, loc)] — a new instruction was inserted}
    {- [delete(loc)] — an instruction was removed}
    {- [hoist(loc, newLoc)] — an instruction moved against the CFG order}
    {- [sink(loc, newLoc)] — an instruction moved along the CFG order}
    {- [replace(oldOp, newOp, \[inst\])] — operand uses rewritten}}

    Because clones preserve instruction ids and register names, the mapping
    between program points and variables of the two versions (the Δ and the
    value map of Section 4.2/5.1) falls out of this action history. *)

type action =
  | Add of { id : int; block : string }
  | Delete of { id : int }
  | Hoist of { id : int; from_block : string; to_block : string }
  | Sink of { id : int; from_block : string; to_block : string }
  | Replace of { old_value : Ir.value; new_value : Ir.value; inst : int option }
      (** [inst = None] means all uses were rewritten *)

let action_kind = function
  | Add _ -> `Add
  | Delete _ -> `Delete
  | Hoist _ -> `Hoist
  | Sink _ -> `Sink
  | Replace _ -> `Replace

(* Statistics for Table 1/2 consumers and `--stats`: one counter per
   primitive action kind (the LLVM Statistic analogue). *)
let stat_add = Telemetry.counter ~group:"mapper" "add" ~desc:"instructions inserted"
let stat_delete = Telemetry.counter ~group:"mapper" "delete" ~desc:"instructions removed"

let stat_hoist =
  Telemetry.counter ~group:"mapper" "hoist" ~desc:"instructions moved against CFG order"

let stat_sink =
  Telemetry.counter ~group:"mapper" "sink" ~desc:"instructions moved along CFG order"

let stat_replace = Telemetry.counter ~group:"mapper" "replace" ~desc:"operand uses rewritten"

type t = {
  tel : Telemetry.sink;  (** where action statistics and pass remarks go *)
  mutable actions : action list;  (** most recent first *)
  deleted : (int, unit) Hashtbl.t;
  added : (int, unit) Hashtbl.t;
  moved : (int, string * string) Hashtbl.t;  (** id → (original block, current block) *)
  (* Value equivalences from replace actions: maps an optimized-side value
     to base-side values it stands for, and vice versa.  Chains are
     resolved at query time. *)
  repl_fwd : (string, Ir.value) Hashtbl.t;  (** base reg → value it was replaced by *)
  mutable alias_rev : (Ir.reg, Ir.reg list) Hashtbl.t option;
      (** memoized inverse of the resolved replacement chains: surviving
          register → base registers that collapsed onto it.  Rebuilt lazily;
          dropped whenever [repl_fwd] gains an entry. *)
}

let create ?(telemetry = Telemetry.null) () : t =
  {
    tel = telemetry;
    actions = [];
    deleted = Hashtbl.create 32;
    added = Hashtbl.create 16;
    moved = Hashtbl.create 16;
    repl_fwd = Hashtbl.create 32;
    alias_rev = None;
  }

let record (m : t) (a : action) : unit = m.actions <- a :: m.actions

(** The sink this mapper reports to — how passes, which already receive the
    mapper, reach telemetry without a signature change. *)
let telemetry (m : t) : Telemetry.sink = m.tel

(* --- recording API used by the passes ------------------------------- *)

let add_instr (m : t) (i : Ir.instr) ~(block : string) : unit =
  Telemetry.bump m.tel stat_add;
  Hashtbl.replace m.added i.id ();
  record m (Add { id = i.id; block })

let delete_instr (m : t) (i : Ir.instr) : unit =
  Telemetry.bump m.tel stat_delete;
  Hashtbl.replace m.deleted i.id ();
  record m (Delete { id = i.id })

let hoist_instr (m : t) (i : Ir.instr) ~(from_block : string) ~(to_block : string) : unit =
  Telemetry.bump m.tel stat_hoist;
  let orig =
    match Hashtbl.find_opt m.moved i.id with Some (o, _) -> o | None -> from_block
  in
  Hashtbl.replace m.moved i.id (orig, to_block);
  record m (Hoist { id = i.id; from_block; to_block })

let sink_instr (m : t) (i : Ir.instr) ~(from_block : string) ~(to_block : string) : unit =
  Telemetry.bump m.tel stat_sink;
  let orig =
    match Hashtbl.find_opt m.moved i.id with Some (o, _) -> o | None -> from_block
  in
  Hashtbl.replace m.moved i.id (orig, to_block);
  record m (Sink { id = i.id; from_block; to_block })

let replace_all_uses (m : t) ~(old_value : Ir.value) ~(new_value : Ir.value) : unit =
  Telemetry.bump m.tel stat_replace;
  (match old_value with
  | Ir.Reg r ->
      Hashtbl.replace m.repl_fwd r new_value;
      m.alias_rev <- None
  | Ir.Const _ | Ir.Undef -> ());
  record m (Replace { old_value; new_value; inst = None })

let replace_use_in (m : t) ~(inst : Ir.instr) ~(old_value : Ir.value) ~(new_value : Ir.value) :
    unit =
  Telemetry.bump m.tel stat_replace;
  record m (Replace { old_value; new_value; inst = Some inst.id })

(* --- queries used by the OSR layer ---------------------------------- *)

let is_added (m : t) (id : int) : bool = Hashtbl.mem m.added id

(** Resolve the replacement chain of a base-side register: the value that
    holds it in the optimized version ([None] if it was never replaced).
    CSE chains (a → b, b → c) resolve to the final survivor. *)
let resolve_replacement (m : t) (r : Ir.reg) : Ir.value option =
  let rec follow v depth =
    if depth = 0 then v
    else
      match v with
      | Ir.Reg r' -> (
          match Hashtbl.find_opt m.repl_fwd r' with
          | Some v' -> follow v' (depth - 1)
          | None -> v)
      | Ir.Const _ | Ir.Undef -> v
  in
  match Hashtbl.find_opt m.repl_fwd r with Some v -> Some (follow v 64) | None -> None

(** Base-side registers equivalent to the given optimized-side register —
    the implicit aliasing information captured from replace actions
    (Section 5.4): [r] itself plus every base register whose replacement
    chain ends at [r]. *)
let base_aliases_of (m : t) (r : Ir.reg) : Ir.reg list =
  let rev =
    match m.alias_rev with
    | Some h -> h
    | None ->
        (* One scan of the replacement table inverts every resolved chain
           at once; per-register queries are then O(answer). *)
        let h = Hashtbl.create (max 16 (Hashtbl.length m.repl_fwd)) in
        Hashtbl.iter
          (fun old _ ->
            match resolve_replacement m old with
            | Some (Ir.Reg r') when not (String.equal old r') ->
                Hashtbl.replace h r'
                  (old :: Option.value ~default:[] (Hashtbl.find_opt h r'))
            | _ -> ())
          m.repl_fwd;
        m.alias_rev <- Some h;
        h
  in
  Option.value ~default:[] (Hashtbl.find_opt rev r) @ [ r ]

(** Force the alias-inverse memo.  Queries on a primed mapper whose
    replacement table no longer grows are read-only, which is what lets
    the parallel sweep share one mapper across domains. *)
let prime_aliases (m : t) : unit =
  if m.alias_rev = None then ignore (base_aliases_of m "" : Ir.reg list)

(** Count of each primitive action kind, for Table 2. *)
type counts = { add : int; delete : int; hoist : int; sink : int; replace : int }

let zero_counts = { add = 0; delete = 0; hoist = 0; sink = 0; replace = 0 }

let counts (m : t) : counts =
  List.fold_left
    (fun c a ->
      match action_kind a with
      | `Add -> { c with add = c.add + 1 }
      | `Delete -> { c with delete = c.delete + 1 }
      | `Hoist -> { c with hoist = c.hoist + 1 }
      | `Sink -> { c with sink = c.sink + 1 }
      | `Replace -> { c with replace = c.replace + 1 })
    zero_counts m.actions

let actions_in_order (m : t) : action list = List.rev m.actions

(* --- transactional snapshots (pass-pipeline sandboxing) -------------- *)

type snapshot = {
  s_actions : action list;
  s_deleted : (int, unit) Hashtbl.t;
  s_added : (int, unit) Hashtbl.t;
  s_moved : (int, string * string) Hashtbl.t;
  s_repl_fwd : (string, Ir.value) Hashtbl.t;
}

(** Capture the mapper's full state; O(|history|).  The action list is
    immutable and shared, the index tables are copied. *)
let snapshot (m : t) : snapshot =
  {
    s_actions = m.actions;
    s_deleted = Hashtbl.copy m.deleted;
    s_added = Hashtbl.copy m.added;
    s_moved = Hashtbl.copy m.moved;
    s_repl_fwd = Hashtbl.copy m.repl_fwd;
  }

(** Roll the mapper back to [s]: the actions a misbehaving pass recorded
    after the snapshot disappear from the history and every derived
    query. *)
let restore (m : t) (s : snapshot) : unit =
  m.actions <- s.s_actions;
  let refill dst src =
    Hashtbl.reset dst;
    Hashtbl.iter (Hashtbl.replace dst) src
  in
  refill m.deleted s.s_deleted;
  refill m.added s.s_added;
  refill m.moved s.s_moved;
  refill m.repl_fwd s.s_repl_fwd;
  m.alias_rev <- None
