(** An immutable per-function index over a MiniIR function: O(1) lookup of
    blocks by label, instructions by id, predecessors/successors, parameter
    membership, definition sites, and per-block instruction order.  Built in
    one pass over the function; every consumer that used to rescan
    [f.blocks] ({!Ir.find_block}, {!Ir.predecessors}, per-point block
    rescans) goes through an index instead, which is what makes the
    per-point OSR feasibility sweep near-linear.

    The index is a snapshot: it holds the block and instruction records of
    the function at build time.  Passes that mutate instruction {e contents}
    in place keep a valid index; passes that add/remove blocks or
    instructions, or rewrite terminators, must rebuild (the analysis
    manager's invalidation contract, see [Passes.Analysis_manager]). *)

type t = {
  func : Ir.func;
  blocks : (string, Ir.block) Hashtbl.t;  (** label → block *)
  instrs : (int, Ir.instr) Hashtbl.t;  (** instruction id → instr (no terminators) *)
  owner : (int, string) Hashtbl.t;  (** instruction/terminator id → block label *)
  positions : (int, string * int) Hashtbl.t;
      (** id → (block, index): φ-nodes share index 0, body starts at 1, the
          terminator sits after the body — the convention
          {!Dom.instr_dominates} reads *)
  preds : (string, string list) Hashtbl.t;  (** label → predecessor labels *)
  succs : (string, string list) Hashtbl.t;  (** label → successor labels *)
  param_set : (Ir.reg, unit) Hashtbl.t;
  defs : (Ir.reg, Ir.def_site) Hashtbl.t;  (** register → unique SSA definition *)
  body_order : (string, Ir.instr array) Hashtbl.t;  (** label → body in execution order *)
}

let make (f : Ir.func) : t =
  let n_blocks = max 16 (List.length f.blocks) in
  let blocks = Hashtbl.create n_blocks in
  let instrs = Hashtbl.create 64 in
  let owner = Hashtbl.create 64 in
  let positions = Hashtbl.create 64 in
  let preds = Hashtbl.create n_blocks in
  let succs = Hashtbl.create n_blocks in
  let param_set = Hashtbl.create 8 in
  let defs = Hashtbl.create 64 in
  let body_order = Hashtbl.create n_blocks in
  List.iter (fun p -> Hashtbl.replace param_set p ()) f.params;
  List.iter
    (fun (b : Ir.block) ->
      Hashtbl.replace blocks b.label b;
      Hashtbl.replace preds b.label [])
    f.blocks;
  List.iter
    (fun (b : Ir.block) ->
      let record_instr ~in_phis ~pos (i : Ir.instr) =
        Hashtbl.replace instrs i.id i;
        Hashtbl.replace owner i.id b.label;
        Hashtbl.replace positions i.id (b.label, pos);
        match i.result with
        | Some r -> Hashtbl.replace defs r { Ir.di = i; block = b.label; in_phis }
        | None -> ()
      in
      List.iter (record_instr ~in_phis:true ~pos:0) b.phis;
      List.iteri (fun k i -> record_instr ~in_phis:false ~pos:(k + 1) i) b.body;
      Hashtbl.replace owner b.term_id b.label;
      Hashtbl.replace positions b.term_id (b.label, List.length b.body + 1);
      Hashtbl.replace body_order b.label (Array.of_list b.body);
      let ss = Ir.successors b in
      Hashtbl.replace succs b.label ss;
      List.iter
        (fun s ->
          match Hashtbl.find_opt preds s with
          | Some ps -> Hashtbl.replace preds s (ps @ [ b.label ])
          | None -> ())
        ss)
    f.blocks;
  { func = f; blocks; instrs; owner; positions; preds; succs; param_set; defs; body_order }

(* ------------------------------------------------------------------ *)
(* Queries (mirroring the linear Ir accessors)                          *)
(* ------------------------------------------------------------------ *)

let find_block (t : t) (label : string) : Ir.block option = Hashtbl.find_opt t.blocks label

let block_exn (t : t) (label : string) : Ir.block =
  match Hashtbl.find_opt t.blocks label with
  | Some b -> b
  | None ->
      invalid_arg (Printf.sprintf "Func_index.block_exn: no block %S in @%s" label t.func.fname)

let owner_of (t : t) (id : int) : string option = Hashtbl.find_opt t.owner id

let position_of (t : t) (id : int) : (string * int) option = Hashtbl.find_opt t.positions id

(** Predecessor labels, in block order (matches {!Ir.predecessors}). *)
let predecessors (t : t) (label : string) : string list =
  Option.value ~default:[] (Hashtbl.find_opt t.preds label)

let successors (t : t) (label : string) : string list =
  Option.value ~default:[] (Hashtbl.find_opt t.succs label)

let is_param (t : t) (r : Ir.reg) : bool = Hashtbl.mem t.param_set r

(** The body of a block in execution order, as built.  φ-nodes excluded. *)
let body_of (t : t) (label : string) : Ir.instr array =
  Option.value ~default:[||] (Hashtbl.find_opt t.body_order label)

(* ------------------------------------------------------------------ *)
(* Consistency check (exercised by the test suite against the linear    *)
(* Ir accessors)                                                        *)
(* ------------------------------------------------------------------ *)

(** Verify the index agrees with the linear accessors it replaces.
    Returns an error description on the first mismatch. *)
let check (t : t) : (unit, string) result =
  let f = t.func in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec check_blocks = function
    | [] -> Ok ()
    | (b : Ir.block) :: rest ->
        if Ir.find_block f b.label <> find_block t b.label then
          fail "block %S: index and Ir.find_block disagree" b.label
        else if List.sort compare (Ir.predecessors f b.label)
                <> List.sort compare (predecessors t b.label)
        then fail "block %S: predecessor mismatch" b.label
        else if Ir.successors b <> successors t b.label then
          fail "block %S: successor mismatch" b.label
        else if Array.to_list (body_of t b.label) <> b.body then
          fail "block %S: body order mismatch" b.label
        else check_blocks rest
  in
  match check_blocks f.blocks with
  | Error _ as e -> e
  | Ok () ->
      let ok = ref (Ok ()) in
      let legacy_owner = Ir.block_of_instr f in
      Hashtbl.iter
        (fun id label ->
          if !ok = Ok () && Hashtbl.find_opt legacy_owner id <> Some label then
            ok := fail "instr #%d: owner mismatch" id)
        t.owner;
      (match !ok with
      | Ok () ->
          let legacy_defs = Ir.def_table f in
          Hashtbl.iter
            (fun r (d : Ir.def_site) ->
              match Hashtbl.find_opt legacy_defs r with
              | Some d' when d'.Ir.di == d.Ir.di -> ()
              | _ -> if !ok = Ok () then ok := fail "register %%%s: def-site mismatch" r)
            t.defs
      | Error _ -> ());
      !ok
