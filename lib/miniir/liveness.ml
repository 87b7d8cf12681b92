(** Per-instruction liveness for MiniIR.  [live_before] of an instruction id
    is the set of registers whose current values may still be read on some
    path from that point — the IR analogue of the paper's [live(p, l)]
    (definedness is structural in SSA: a value is defined iff its definition
    dominates the point, so no separate conjunct is needed).

    φ-node incomings are attributed to the tail of the corresponding
    predecessor, as usual.

    Registers are interned to dense integers and the sets are byte-array
    bitsets: the block fixpoint works on gen/kill summaries with word-wide
    unions instead of [Set.Make(String)] element-by-element unions, which
    is what keeps the Figure 7/8 feasibility sweep (thousands of
    [live_at]/[is_live] queries per function version) cheap.  One shared
    solve (blocks numbered in list order, each register interned once,
    operands resolved to ids once) serves both {!compute}, which tables
    every point, and {!live_at_point}, which walks back through one block
    for a single query.  The original string-set implementation is retained
    below as {!Reference} and the randomized test suite checks the two agree
    on generated functions. *)

(* ------------------------------------------------------------------ *)
(* Bitsets over interned registers                                      *)
(* ------------------------------------------------------------------ *)

module Bits = struct
  type t = Bytes.t

  (* Whole 64-bit words, so the set operations below work a word at a time. *)
  let create (nbits : int) : t = Bytes.make (((nbits + 63) lsr 6) lsl 3) '\000'
  let copy = Bytes.copy
  let equal = Bytes.equal

  let mem (b : t) (i : int) : bool =
    Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let set (b : t) (i : int) : unit =
    Bytes.unsafe_set b (i lsr 3)
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

  let clear (b : t) (i : int) : unit =
    Bytes.unsafe_set b (i lsr 3)
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i lsr 3)) land lnot (1 lsl (i land 7))))

  (** [union_into dst src]: dst ← dst ∪ src. *)
  let union_into (dst : t) (src : t) : unit =
    let k = ref 0 in
    while !k < Bytes.length dst do
      Bytes.set_int64_ne dst !k
        (Int64.logor (Bytes.get_int64_ne dst !k) (Bytes.get_int64_ne src !k));
      k := !k + 8
    done

  (** [diff_into dst src]: dst ← dst \ src. *)
  let diff_into (dst : t) (src : t) : unit =
    let k = ref 0 in
    while !k < Bytes.length dst do
      Bytes.set_int64_ne dst !k
        (Int64.logand (Bytes.get_int64_ne dst !k) (Int64.lognot (Bytes.get_int64_ne src !k)));
      k := !k + 8
    done

  let clear_all (b : t) : unit = Bytes.fill b 0 (Bytes.length b) '\000'
  let blit ~(src : t) ~(dst : t) : unit = Bytes.blit src 0 dst 0 (Bytes.length src)

  let iter (fn : int -> unit) (b : t) : unit =
    for k = 0 to Bytes.length b - 1 do
      let byte = Char.code (Bytes.unsafe_get b k) in
      if byte <> 0 then
        for j = 0 to 7 do
          if byte land (1 lsl j) <> 0 then fn ((k lsl 3) lor j)
        done
    done
end

type t = {
  names : string array;  (** interned register id → name *)
  ids : (string, int) Hashtbl.t;  (** name → interned id *)
  live_before : (int, Bits.t) Hashtbl.t;  (** instruction/terminator id → set *)
  live_out : (string, Bits.t) Hashtbl.t;  (** block label → live-out *)
  elems : (int, string list) Hashtbl.t;  (** memoized sorted [live_at] answers *)
}

(* ------------------------------------------------------------------ *)
(* The shared solve                                                     *)
(* ------------------------------------------------------------------ *)

(* Everything both {!compute} and {!live_at_point} need: blocks numbered in
   list order, every register interned once and every operand resolved to
   its interned id once, and the block-level fixpoint's live-out sets. *)
type solve = {
  s_names : string array;
  s_ids : (string, int) Hashtbl.t;
  blocks : Ir.block array;
  body : Ir.instr array array;  (** block → body in execution order *)
  body_def : int array array;  (** block → body instr → result id, or -1 *)
  body_uses : int array array array;  (** block → body instr → operand ids *)
  term_uses : int array array;  (** block → terminator operand ids *)
  out : Bits.t array;  (** block → live-out *)
}

let no_uses : int array = [||]

let solve (f : Ir.func) : solve =
  (* --- Number blocks, intern every register once (params first, then
     each block's φ-nodes, body and terminator in order) and resolve every
     operand to its id. --- *)
  let blocks = Array.of_list f.blocks in
  let nb = Array.length blocks in
  let number = Hashtbl.create (max 16 nb) in
  Array.iteri (fun k (b : Ir.block) -> Hashtbl.replace number b.label k) blocks;
  let body = Array.map (fun (b : Ir.block) -> Array.of_list b.body) blocks in
  (* Sized for one register per instruction: no rehashing while interning. *)
  let ids =
    Hashtbl.create
      (Array.fold_left (fun acc is -> acc + Array.length is) (List.length f.params + 16) body)
  in
  let rev = ref [] in
  let n = ref 0 in
  let intern r =
    match Hashtbl.find ids r with
    | i -> i
    | exception Not_found ->
        let i = !n in
        Hashtbl.add ids r i;
        rev := r :: !rev;
        incr n;
        i
  in
  let uses_of (vs : Ir.value list) : int array =
    match List.filter_map (function Ir.Reg r -> Some (intern r) | _ -> None) vs with
    | [] -> no_uses
    | l -> Array.of_list l
  in
  List.iter (fun p -> ignore (intern p : int)) f.params;
  (* φ-defs per block, and φ incomings as (pred label, id) per block. *)
  let phi_defs = Array.make nb [] and phi_edges = Array.make nb [] in
  let body_def = Array.make nb [||] in
  let body_uses = Array.make nb [||] and term_uses = Array.make nb no_uses in
  Array.iteri
    (fun k (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          (match i.result with Some r -> phi_defs.(k) <- intern r :: phi_defs.(k) | None -> ());
          match i.rhs with
          | Ir.Phi incoming ->
              List.iter
                (fun (l, v) ->
                  match v with
                  | Ir.Reg r -> phi_edges.(k) <- (l, intern r) :: phi_edges.(k)
                  | Ir.Const _ | Ir.Undef -> ())
                incoming
          | rhs -> List.iter (fun r -> ignore (intern r : int)) (Ir.rhs_uses rhs))
        b.phis;
      let instrs = body.(k) in
      let defs = Array.make (Array.length instrs) (-1) in
      body_def.(k) <- defs;
      body_uses.(k) <-
        Array.mapi
          (fun j (i : Ir.instr) ->
            (match i.result with Some r -> defs.(j) <- intern r | None -> ());
            uses_of (Ir.rhs_operands i.rhs))
          instrs;
      term_uses.(k) <- uses_of (Ir.term_operands b.term))
    blocks;
  let nbits = !n in
  let names = Array.make (max 1 nbits) "" in
  List.iteri (fun k r -> names.(nbits - 1 - k) <- r) !rev;
  (* --- Per-block summaries: gen/kill over body+terminator, φ defs, and
     each successor edge's φ incomings. --- *)
  let gen = Array.init nb (fun _ -> Bits.create nbits) in
  let kill = Array.init nb (fun _ -> Bits.create nbits) in
  let pdef = Array.init nb (fun _ -> Bits.create nbits) in
  for k = 0 to nb - 1 do
    let g = gen.(k) and kl = kill.(k) in
    let add_uses us = Array.iter (fun ri -> if not (Bits.mem kl ri) then Bits.set g ri) us in
    Array.iteri
      (fun j us ->
        add_uses us;
        let d = body_def.(k).(j) in
        if d >= 0 then Bits.set kl d)
      body_uses.(k);
    add_uses term_uses.(k);
    List.iter (Bits.set pdef.(k)) phi_defs.(k)
  done;
  (* Successor edges of each block: (successor number, φ incomings the
     successor reads along this edge, if any). *)
  let succs =
    Array.map
      (fun (b : Ir.block) ->
        Array.of_list
          (List.filter_map
             (fun s ->
               match Hashtbl.find_opt number s with
               | None -> None
               | Some sk ->
                   let edge =
                     List.fold_left
                       (fun acc (l, ri) ->
                         if String.equal l b.label then begin
                           let bs = match acc with Some bs -> bs | None -> Bits.create nbits in
                           Bits.set bs ri;
                           Some bs
                         end
                         else acc)
                       None phi_edges.(sk)
                   in
                   Some (sk, edge))
             (Ir.successors b)))
      blocks
  in
  (* --- Block-level fixpoint, in place over two scratch sets. --- *)
  let live_in = Array.init nb (fun _ -> Bits.create nbits) in
  let out = Array.init nb (fun _ -> Bits.create nbits) in
  let o = Bits.create nbits and inn = Bits.create nbits in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = nb - 1 downto 0 do
      Bits.clear_all o;
      Array.iter
        (fun (sk, edge) ->
          Bits.union_into o live_in.(sk);
          match edge with Some bs -> Bits.union_into o bs | None -> ())
        succs.(k);
      (* in = (gen ∪ (out \ kill)) \ phi_defs *)
      Bits.blit ~src:o ~dst:inn;
      Bits.diff_into inn kill.(k);
      Bits.union_into inn gen.(k);
      Bits.diff_into inn pdef.(k);
      if not (Bits.equal o out.(k)) then begin
        Bits.blit ~src:o ~dst:out.(k);
        changed := true
      end;
      if not (Bits.equal inn live_in.(k)) then begin
        Bits.blit ~src:inn ~dst:live_in.(k);
        changed := true
      end
    done
  done;
  { s_names = names; s_ids = ids; blocks; body; body_def; body_uses; term_uses; out }

(* Backward transfer of one body instruction: kill its def, add its uses. *)
let step (s : solve) (k : int) (j : int) (live : Bits.t) : unit =
  let d = s.body_def.(k).(j) in
  if d >= 0 then Bits.clear live d;
  Array.iter (Bits.set live) s.body_uses.(k).(j)

let compute (f : Ir.func) : t =
  let s = solve f in
  let live_before =
    Hashtbl.create
      (Array.fold_left (fun acc (b : Ir.block) -> acc + 1 + List.length b.phis) 0 s.blocks
      + Array.fold_left (fun acc is -> acc + Array.length is) 0 s.body)
  in
  let live_out = Hashtbl.create (max 16 (Array.length s.blocks)) in
  Array.iteri
    (fun k (b : Ir.block) ->
      Hashtbl.replace live_out b.label s.out.(k);
      let live = Bits.copy s.out.(k) in
      Array.iter (Bits.set live) s.term_uses.(k);
      Hashtbl.replace live_before b.term_id (Bits.copy live);
      for j = Array.length s.body.(k) - 1 downto 0 do
        step s k j live;
        Hashtbl.replace live_before s.body.(k).(j).Ir.id (Bits.copy live)
      done;
      (* φ-nodes all share the block-top point: live there is live at body
         start minus nothing (their defs are at this very point). *)
      List.iter (fun (i : Ir.instr) -> Hashtbl.replace live_before i.id live) b.phis)
    s.blocks;
  { names = s.s_names; ids = s.s_ids; live_before; live_out; elems = Hashtbl.create 64 }

(** A shallow copy sharing the (now read-only) liveness results but owning
    a fresh {!live_at} memo table.  The fixpoint tables are never written
    after {!compute} returns; the memo is — so a fork per domain makes the
    analysis safe to query concurrently. *)
let fork (t : t) : t = { t with elems = Hashtbl.create 64 }

let sorted_names (names : string array) (bs : Bits.t) : string list =
  let acc = ref [] in
  Bits.iter (fun i -> acc := names.(i) :: !acc) bs;
  List.sort String.compare !acc

let to_sorted_names (t : t) (bs : Bits.t) : string list = sorted_names t.names bs

(** Registers live just before instruction [id] executes (sorted). *)
let live_at (t : t) (id : int) : string list =
  match Hashtbl.find_opt t.elems id with
  | Some l -> l
  | None -> (
      match Hashtbl.find_opt t.live_before id with
      | Some bs ->
          let l = to_sorted_names t bs in
          Hashtbl.replace t.elems id l;
          l
      | None -> [])

(** [live_at (compute f) id] for one point, without the per-instruction
    table: the shared solve, then a backward walk through the block holding
    [id] only.  [[]] for an unknown id.  When an id occurs more than once,
    the answer is the one {!compute} records last. *)
let live_at_point (f : Ir.func) (id : int) : string list =
  let s = solve f in
  (* [compute] writes blocks in order, each from the terminator back to the
     φ-nodes: the last block holding [id] decides. *)
  let holder = ref (-1) in
  Array.iteri
    (fun k (b : Ir.block) ->
      if b.term_id = id
         || Array.exists (fun (i : Ir.instr) -> i.id = id) s.body.(k)
         || List.exists (fun (i : Ir.instr) -> i.id = id) b.phis
      then holder := k)
    s.blocks;
  if !holder < 0 then []
  else begin
    let k = !holder in
    let b = s.blocks.(k) in
    let live = Bits.copy s.out.(k) in
    Array.iter (Bits.set live) s.term_uses.(k);
    let found = ref (if b.term_id = id then Some (Bits.copy live) else None) in
    for j = Array.length s.body.(k) - 1 downto 0 do
      step s k j live;
      if s.body.(k).(j).Ir.id = id then found := Some (Bits.copy live)
    done;
    if List.exists (fun (i : Ir.instr) -> i.id = id) b.phis then found := Some live;
    match !found with Some bs -> sorted_names s.s_names bs | None -> []
  end

(** Interned id of a register, for callers that pre-resolve names once and
    then test bits directly (see {!bits_at}). *)
let id_of (t : t) (r : string) : int option = Hashtbl.find_opt t.ids r

(** Raw live-before bitset of a point ([None] for unknown points); query
    with [Bits.mem] and ids from {!id_of}. *)
let bits_at (t : t) (id : int) : Bits.t option = Hashtbl.find_opt t.live_before id

let is_live (t : t) (id : int) (r : string) : bool =
  match (Hashtbl.find_opt t.live_before id, Hashtbl.find_opt t.ids r) with
  | Some bs, Some ri -> Bits.mem bs ri
  | _, _ -> false

let live_out_of (t : t) (label : string) : string list =
  match Hashtbl.find_opt t.live_out label with
  | Some bs -> to_sorted_names t bs
  | None -> []

(* ------------------------------------------------------------------ *)
(* Reference implementation                                             *)
(* ------------------------------------------------------------------ *)

(** The original [Set.Make(String)] implementation, kept as a differential
    oracle for the bitset version (see the randomized agreement test in
    [test/suite_miniir.ml]). *)
module Reference = struct
  module SSet = Set.Make (String)

  type t = {
    live_before : (int, SSet.t) Hashtbl.t;  (** instruction/terminator id → set *)
    live_out : (string, SSet.t) Hashtbl.t;  (** block label → live-out *)
  }

  let compute (f : Ir.func) : t =
    let phi_defs (b : Ir.block) =
      List.fold_left
        (fun s (i : Ir.instr) ->
          match i.result with Some r -> SSet.add r s | None -> s)
        SSet.empty b.phis
    in
    let phi_uses_from (b : Ir.block) ~(pred : string) =
      List.fold_left
        (fun s (i : Ir.instr) ->
          match i.rhs with
          | Ir.Phi incoming ->
              List.fold_left
                (fun s (l, v) ->
                  match v with
                  | Ir.Reg r when String.equal l pred -> SSet.add r s
                  | Ir.Reg _ | Ir.Const _ | Ir.Undef -> s)
                s incoming
          | _ -> s)
        SSet.empty b.phis
    in
    (* Backward transfer through terminator and body; returns live at body
       start (before the first body instruction, after the φ-nodes). *)
    let through_block (b : Ir.block) (out : SSet.t) : SSet.t =
      let live = List.fold_left (fun s r -> SSet.add r s) out (Ir.term_uses b.term) in
      List.fold_left
        (fun live (i : Ir.instr) ->
          let live = match i.result with Some r -> SSet.remove r live | None -> live in
          List.fold_left (fun s r -> SSet.add r s) live (Ir.rhs_uses i.rhs))
        live (List.rev b.body)
    in
    let live_in = Hashtbl.create 16 in
    let live_out = Hashtbl.create 16 in
    List.iter
      (fun (b : Ir.block) ->
        Hashtbl.replace live_in b.label SSet.empty;
        Hashtbl.replace live_out b.label SSet.empty)
      f.blocks;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Ir.block) ->
          let out =
            List.fold_left
              (fun acc s ->
                match Ir.find_block f s with
                | Some sb ->
                    SSet.union acc
                      (SSet.union (Hashtbl.find live_in s) (phi_uses_from sb ~pred:b.label))
                | None -> acc)
              SSet.empty (Ir.successors b)
          in
          let inn = SSet.diff (through_block b out) (phi_defs b) in
          if not (SSet.equal out (Hashtbl.find live_out b.label)) then begin
            Hashtbl.replace live_out b.label out;
            changed := true
          end;
          if not (SSet.equal inn (Hashtbl.find live_in b.label)) then begin
            Hashtbl.replace live_in b.label inn;
            changed := true
          end)
        (List.rev f.blocks)
    done;
    (* Final per-instruction pass. *)
    let live_before = Hashtbl.create 64 in
    List.iter
      (fun (b : Ir.block) ->
        let out = Hashtbl.find live_out b.label in
        let live = List.fold_left (fun s r -> SSet.add r s) out (Ir.term_uses b.term) in
        Hashtbl.replace live_before b.term_id live;
        let live =
          List.fold_left
            (fun live (i : Ir.instr) ->
              let live' =
                let l = match i.result with Some r -> SSet.remove r live | None -> live in
                List.fold_left (fun s r -> SSet.add r s) l (Ir.rhs_uses i.rhs)
              in
              Hashtbl.replace live_before i.id live';
              live')
            live (List.rev b.body)
        in
        List.iter (fun (i : Ir.instr) -> Hashtbl.replace live_before i.id live) b.phis)
      f.blocks;
    { live_before; live_out }

  let live_at (t : t) (id : int) : string list =
    match Hashtbl.find_opt t.live_before id with
    | Some s -> SSet.elements s
    | None -> []

  let is_live (t : t) (id : int) (r : string) : bool =
    match Hashtbl.find_opt t.live_before id with Some s -> SSet.mem r s | None -> false

  let live_out_of (t : t) (label : string) : string list =
    match Hashtbl.find_opt t.live_out label with Some s -> SSet.elements s | None -> []
end
