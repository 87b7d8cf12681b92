(** The original [Set.Make(String)] liveness, kept verbatim as a
    differential oracle for the bitset {!Miniir.Liveness} (the agreement
    tests in [Suite_miniir] and the continuation check in
    [Suite_osrir]). *)

module Ir = Miniir.Ir

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
