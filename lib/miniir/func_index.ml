(** An immutable per-function index over a MiniIR function: O(1) lookup of
    blocks by label, predecessors, instruction positions by id,
    parameter membership and definition sites.  Built in one pass over
    the function; every consumer that used to rescan [f.blocks]
    ({!Ir.find_block}, {!Ir.predecessors}, per-point block rescans) goes
    through an index instead, which is what makes the per-point OSR
    feasibility sweep near-linear.  Its control-flow part ({!cfg}) is all
    that dominators need, and can be built alone.

    The index is a snapshot: it holds the block and instruction records of
    the function at build time.  Mutating instruction {e contents} in place
    keeps it valid; adding or removing blocks or instructions, or rewriting
    terminators, does not.  The pass pipeline therefore never keeps one
    across a pass: each pass gets the index the verifier built after the
    previous one (see [Passes.Analysis_manager]). *)

type cfg = {
  func : Ir.func;
  blocks : (string, Ir.block) Hashtbl.t;  (** label → block *)
  preds : (string, string list) Hashtbl.t;  (** label → predecessor labels *)
}

type t = {
  cfg : cfg;
  positions : (int, string * int) Hashtbl.t;
      (** instruction/terminator id → (block, index): φ-nodes share index
          0, body starts at 1, the terminator sits after the body — the
          convention {!Dom.instr_dominates} reads *)
  param_set : (Ir.reg, unit) Hashtbl.t;
  defs : (Ir.reg, Ir.def_site) Hashtbl.t;  (** register → unique SSA definition *)
}

let make_cfg (f : Ir.func) : cfg =
  let n_blocks = max 16 (List.length f.blocks) in
  let blocks = Hashtbl.create n_blocks in
  let preds = Hashtbl.create n_blocks in
  List.iter
    (fun (b : Ir.block) ->
      Hashtbl.replace blocks b.label b;
      Hashtbl.replace preds b.label [])
    f.blocks;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt preds s with
          | Some ps -> Hashtbl.replace preds s (ps @ [ b.label ])
          | None -> ())
        (Ir.successors b))
    f.blocks;
  { func = f; blocks; preds }

let make (f : Ir.func) : t =
  let positions = Hashtbl.create 64 in
  let param_set = Hashtbl.create 8 in
  let defs = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace param_set p ()) f.params;
  List.iter
    (fun (b : Ir.block) ->
      let record_instr ~in_phis ~pos (i : Ir.instr) =
        Hashtbl.replace positions i.id (b.label, pos);
        match i.result with
        | Some r -> Hashtbl.replace defs r { Ir.di = i; block = b.label; in_phis }
        | None -> ()
      in
      List.iter (record_instr ~in_phis:true ~pos:0) b.phis;
      List.iteri (fun k i -> record_instr ~in_phis:false ~pos:(k + 1) i) b.body;
      Hashtbl.replace positions b.term_id (b.label, List.length b.body + 1))
    f.blocks;
  { cfg = make_cfg f; positions; param_set; defs }

(* ------------------------------------------------------------------ *)
(* Queries (mirroring the linear Ir accessors)                          *)
(* ------------------------------------------------------------------ *)

let find_block (t : t) (label : string) : Ir.block option = Hashtbl.find_opt t.cfg.blocks label

let block_exn (t : t) (label : string) : Ir.block =
  match find_block t label with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Func_index.block_exn: no block %S in @%s" label t.cfg.func.fname)

let owner_of (t : t) (id : int) : string option =
  Option.map fst (Hashtbl.find_opt t.positions id)

let position_of (t : t) (id : int) : (string * int) option = Hashtbl.find_opt t.positions id

(** Predecessor labels, in block order (matches {!Ir.predecessors}). *)
let cfg_predecessors (c : cfg) (label : string) : string list =
  Option.value ~default:[] (Hashtbl.find_opt c.preds label)

let predecessors (t : t) (label : string) : string list = cfg_predecessors t.cfg label

let is_param (t : t) (r : Ir.reg) : bool = Hashtbl.mem t.param_set r

(* ------------------------------------------------------------------ *)
(* Consistency check (exercised by the test suite against the linear    *)
(* Ir accessors)                                                        *)
(* ------------------------------------------------------------------ *)

(** Verify the index agrees with the linear accessors it replaces.
    Returns an error description on the first mismatch. *)
let check (t : t) : (unit, string) result =
  let f = t.cfg.func in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec check_blocks = function
    | [] -> Ok ()
    | (b : Ir.block) :: rest ->
        if Ir.find_block f b.label <> find_block t b.label then
          fail "block %S: index and Ir.find_block disagree" b.label
        else if List.sort compare (Ir.predecessors f b.label)
                <> List.sort compare (predecessors t b.label)
        then fail "block %S: predecessor mismatch" b.label
        else check_blocks rest
  in
  match check_blocks f.blocks with
  | Error _ as e -> e
  | Ok () ->
      let ok = ref (Ok ()) in
      let legacy_owner = Ir.block_of_instr f in
      Hashtbl.iter
        (fun id (label, _) ->
          if !ok = Ok () && Hashtbl.find_opt legacy_owner id <> Some label then
            ok := fail "instr #%d: owner mismatch" id)
        t.positions;
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
