(** Source-variable tracking (Section 7.2): the analogue of LLVM's
    [llvm.dbg.value] metadata.  The corpus DSL names every definition of a
    user variable [u] as [u.def.K] and mem2reg names merge φ-nodes
    [u.slot.phi.K], so a user variable's {e family} — the set of IR values
    that carry it — is recoverable from register names.

    [value_at] answers the debugger's question: which IR value holds [u]
    just before point [l] in [fbase]?  Tracked only when exactly one family
    definition reaches the point on every path (conservative: at merges
    whose φ was pruned, the variable is reported as untracked rather than
    with a stale value).

    [analyze] answers that question for every point at once: one owner
    table from register names, one gen per block, one reaching-definitions
    fixpoint over per-variable arrays, then one walk of each block that
    records the tracked variables before every φ, body instruction and
    terminator.  Queries are table lookups. *)

module Ir = Miniir.Ir

type t = {
  tracked : (int, (string * Ir.reg) list) Hashtbl.t;
      (** point id → tracked (user var, carrying value), in [user_vars]
          order; the first occurrence of a duplicated id wins *)
}

(* [m] occurs in [s] at offset [k]. *)
let occurs_at s k m =
  let lm = String.length m in
  k + lm <= String.length s
  &&
  let rec go j = j = lm || (s.[k + j] = m.[j] && go (j + 1)) in
  go 0

let family_of (fbase : Ir.func) (u : string) : Ir.reg list =
  List.filter_map
    (fun (i : Ir.instr) ->
      match i.result with
      | Some r when occurs_at r 0 (u ^ ".def.") || occurs_at r 0 (u ^ ".slot.phi.") -> Some r
      | _ -> None)
    (Ir.all_instrs fbase)

(* The user variables whose family contains [r], as (index, [r]) pairs:
   every [u] with [r] = [u ^ ".def." ^ _] or [u ^ ".slot.phi." ^ _]. *)
let owners (index : (string, int) Hashtbl.t) (r : Ir.reg) : (int * Ir.reg) list =
  let acc = ref [] in
  for k = String.length r - 1 downto 0 do
    if occurs_at r k ".def." || occurs_at r k ".slot.phi." then
      match Hashtbl.find_opt index (String.sub r 0 k) with
      | Some v -> acc := (v, r) :: !acc
      | None -> ()
  done;
  !acc

(* Per-variable reaching analysis with a three-point lattice. *)
type reach = Nothing | Unique of Ir.reg | Conflict

let join a b =
  match (a, b) with
  | Nothing, x | x, Nothing -> x
  | Unique r1, Unique r2 -> if String.equal r1 r2 then a else Conflict
  | Conflict, _ | _, Conflict -> Conflict

let analyze (fbase : Ir.func) ~(user_vars : string list) : t =
  let index = Hashtbl.create 16 in
  List.iter
    (fun u -> if not (Hashtbl.mem index u) then Hashtbl.add index u (Hashtbl.length index))
    user_vars;
  let nv = Hashtbl.length index in
  let vars = List.map (fun u -> (u, Hashtbl.find index u)) user_vars in
  let blocks = Array.of_list fbase.Ir.blocks in
  let nb = Array.length blocks in
  let by_label = Hashtbl.create nb in
  Array.iteri (fun i (b : Ir.block) -> Hashtbl.replace by_label b.label i) blocks;
  (* Each instruction's id and family definitions, in block order:
     computed once, used by both the gen and the final walk. *)
  let defs =
    Array.map
      (fun b ->
        List.map
          (fun (i : Ir.instr) ->
            (i.id, match i.result with Some r -> owners index r | None -> []))
          (Ir.block_instrs b))
      blocks
  in
  (* Block transfer: the last family def in the block wins. *)
  let gen = Array.map (fun _ -> Array.make nv None) blocks in
  Array.iteri
    (fun bi ds ->
      List.iter (fun (_, d) -> List.iter (fun (v, r) -> gen.(bi).(v) <- Some r) d) ds)
    defs;
  let preds = Array.make nb [] in
  Array.iteri
    (fun i (b : Ir.block) ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt by_label s with
          | Some j -> preds.(j) <- i :: preds.(j)
          | None -> ())
        (Ir.successors b))
    blocks;
  (* Least fixpoint from Nothing everywhere; the transfer is monotone, so
     the sweep order does not change the result. *)
  let inn = Array.map (fun _ -> Array.make nv Nothing) blocks in
  let out p v = match gen.(p).(v) with Some r -> Unique r | None -> inn.(p).(v) in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to nb - 1 do
      for v = 0 to nv - 1 do
        let x = List.fold_left (fun acc p -> join acc (out p v)) Nothing preds.(b) in
        if x <> inn.(b).(v) then begin
          inn.(b).(v) <- x;
          changed := true
        end
      done
    done
  done;
  let tracked = Hashtbl.create 64 in
  Array.iteri
    (fun bi (b : Ir.block) ->
      let cur = Array.map (function Unique r -> Some r | Nothing | Conflict -> None) inn.(bi) in
      let record id =
        if not (Hashtbl.mem tracked id) then
          Hashtbl.add tracked id
            (List.filter_map (fun (u, v) -> Option.map (fun r -> (u, r)) cur.(v)) vars)
      in
      List.iter
        (fun (id, d) ->
          record id;
          List.iter (fun (v, r) -> cur.(v) <- Some r) d)
        defs.(bi);
      record b.term_id)
    blocks;
  { tracked }

(** All user variables tracked at [point] with their carrying values, in
    [user_vars] order; [[]] for a point not in [fbase]. *)
let tracked_at (t : t) ~(point : int) : (string * Ir.reg) list =
  Option.value ~default:[] (Hashtbl.find_opt t.tracked point)

(** The IR value carrying user variable [u] just before instruction id
    [point] in [fbase]; [None] when untracked there. *)
let value_at (t : t) (u : string) ~(point : int) : Ir.reg option =
  List.assoc_opt u (tracked_at t ~point)
