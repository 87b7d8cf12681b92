open Import

(** mem2reg: promote alloca slots that are only loaded and stored into SSA
    registers, inserting φ-nodes at iterated dominance frontiers and
    renaming along the dominator tree.

    This is the front-end pass of the paper's pipeline — [fbase] is
    "clang -O0 followed by mem2reg" (Section 6.1) — so it runs {e before}
    OSR instrumentation and takes no CodeMapper. *)

module SMap = Map.Make (String)

(* Dominator-tree children, from the CHK idom array. *)
let dom_children (dom : Dom.t) : (string, string list) Hashtbl.t =
  let children = Hashtbl.create 16 in
  Array.iteri
    (fun i label ->
      if i > 0 && dom.idom.(i) >= 0 then begin
        let parent = dom.order.(dom.idom.(i)) in
        let cur = Option.value ~default:[] (Hashtbl.find_opt children parent) in
        Hashtbl.replace children parent (label :: cur)
      end)
    dom.order;
  children

(* The promotable allocas, in block order: one-cell allocas whose address
   appears only as the address of loads and stores.  One scan over every
   operand drops the candidates that escape. *)
let promotable_slots (f : Ir.func) : Ir.reg list * (Ir.reg, unit) Hashtbl.t =
  let candidates =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (fun (i : Ir.instr) ->
            match (i.rhs, i.result) with Ir.Alloca 1, Some r -> Some r | _ -> None)
          b.body)
      f.blocks
  in
  let is_slot = Hashtbl.create (max 16 (List.length candidates)) in
  List.iter (fun r -> Hashtbl.replace is_slot r ()) candidates;
  if candidates <> [] then begin
    let escape v = match v with Ir.Reg r -> Hashtbl.remove is_slot r | Ir.Const _ | Ir.Undef -> () in
    let scan (i : Ir.instr) =
      match i.rhs with
      | Ir.Load _ -> ()
      | Ir.Store (v, _) -> escape v
      | rhs -> List.iter escape (Ir.rhs_operands rhs)
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter scan b.phis;
        List.iter scan b.body;
        List.iter escape (Ir.term_operands b.term))
      f.blocks
  end;
  (List.filter (Hashtbl.mem is_slot) candidates, is_slot)

let run (f : Ir.func) : bool =
  let slots, is_slot = promotable_slots f in
  if slots = [] then false
  else begin
    let dom = Dom.compute (Func_index.make_cfg f) in
    let df = Dom.frontiers dom in
    let children = dom_children dom in
    let block_of = Ir.block_table f in
    let block_exn label =
      match Hashtbl.find_opt block_of label with
      | Some b -> b
      | None -> invalid_arg (Printf.sprintf "Mem2reg: no block %S in @%s" label f.fname)
    in
    (* Blocks storing to each slot, in block order. *)
    let def_blocks = Hashtbl.create (List.length slots) in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Store (_, Ir.Reg r) when Hashtbl.mem is_slot r -> (
                match Option.value ~default:[] (Hashtbl.find_opt def_blocks r) with
                | l :: _ when String.equal l b.label -> ()
                | ls -> Hashtbl.replace def_blocks r (b.label :: ls))
            | _ -> ())
          b.body)
      f.blocks;
    (* φ placement: iterated dominance frontier. *)
    let slot_of_phi : (int, string) Hashtbl.t = Hashtbl.create 16 in
    (* placed φ id → slot *)
    List.iter
      (fun slot ->
        let worklist = Queue.create () in
        List.iter
          (fun b -> Queue.push b worklist)
          (List.rev (Option.value ~default:[] (Hashtbl.find_opt def_blocks slot)));
        let placed = Hashtbl.create 8 in
        let enqueued = Hashtbl.create 8 in
        while not (Queue.is_empty worklist) do
          let b = Queue.pop worklist in
          List.iter
            (fun d ->
              if not (Hashtbl.mem placed d) then begin
                Hashtbl.add placed d ();
                let blk = block_exn d in
                let ps = Func_index.cfg_predecessors dom.cfg d in
                let phi =
                  {
                    Ir.id = Ir.fresh_id f;
                    result = Some (Ir.fresh_reg ~hint:(slot ^ ".phi") f);
                    rhs = Ir.Phi (List.map (fun p -> (p, Ir.Undef)) ps);
                  }
                in
                blk.phis <- blk.phis @ [ phi ];
                Hashtbl.replace slot_of_phi phi.id slot;
                if not (Hashtbl.mem enqueued d) then begin
                  Hashtbl.add enqueued d ();
                  Queue.push d worklist
                end
              end)
            (Option.value ~default:[] (Hashtbl.find_opt df b))
        done)
      slots;
    (* Renaming walk over the dominator tree. *)
    let replacements : (Ir.reg, Ir.value) Hashtbl.t = Hashtbl.create 32 in
    (* load result reg → value *)
    let resolve v =
      let rec go v d =
        if d = 0 then v
        else
          match v with
          | Ir.Reg r -> (
              match Hashtbl.find_opt replacements r with Some v' -> go v' (d - 1) | None -> v)
          | _ -> v
      in
      go v 64
    in
    let rec walk (label : string) (env : Ir.value SMap.t) : unit =
      let blk = block_exn label in
      let env = ref env in
      (* φ-nodes of this block define new current values. *)
      List.iter
        (fun (i : Ir.instr) ->
          match (Hashtbl.find_opt slot_of_phi i.id, i.result) with
          | Some slot, Some r -> env := SMap.add slot (Ir.Reg r) !env
          | _ -> ())
        blk.phis;
      (* Body: consume loads/stores of promotable slots. *)
      blk.body <-
        List.filter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Load (Ir.Reg a) when Hashtbl.mem is_slot a ->
                let v =
                  match SMap.find_opt a !env with Some v -> resolve v | None -> Ir.Undef
                in
                (match i.result with
                | Some r -> Hashtbl.replace replacements r v
                | None -> ());
                false
            | Ir.Store (v, Ir.Reg a) when Hashtbl.mem is_slot a ->
                env := SMap.add a (resolve v) !env;
                false
            | Ir.Alloca _ when
                (match i.result with Some r -> Hashtbl.mem is_slot r | None -> false) ->
                false
            | _ -> true)
          blk.body;
      (* Fill φ incomings of successors from this edge. *)
      List.iter
        (fun s ->
          List.iter
            (fun (phi : Ir.instr) ->
              match Hashtbl.find_opt slot_of_phi phi.id with
              | Some slot ->
                  let v =
                    match SMap.find_opt slot !env with Some v -> resolve v | None -> Ir.Undef
                  in
                  phi.rhs <-
                    (match phi.rhs with
                    | Ir.Phi incoming ->
                        Ir.Phi
                          (List.map
                             (fun (l, old) -> if String.equal l label then (l, v) else (l, old))
                             incoming)
                    | rhs -> rhs)
              | None -> ())
            (block_exn s).phis)
        (Ir.successors blk);
      List.iter
        (fun c -> walk c !env)
        (Option.value ~default:[] (Hashtbl.find_opt children label))
    in
    walk (Ir.entry f).label SMap.empty;
    (* One pass rewrites the remaining uses of replaced load results,
       touching only the instructions that read one, and counts the uses of
       every φ result for the pruning below. *)
    let phi_defs : (Ir.reg, Ir.instr) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match (i.rhs, i.result) with
            | Ir.Phi _, Some r -> Hashtbl.replace phi_defs r i
            | _ -> ())
          b.phis)
      f.blocks;
    let uses = Hashtbl.create (Hashtbl.length phi_defs) in
    let count r =
      if Hashtbl.mem phi_defs r then
        Hashtbl.replace uses r (1 + Option.value ~default:0 (Hashtbl.find_opt uses r))
    in
    let replaced v = match v with Ir.Reg r -> Hashtbl.mem replacements r | _ -> false in
    List.iter
      (fun (b : Ir.block) ->
        let visit (i : Ir.instr) =
          if List.exists replaced (Ir.rhs_operands i.rhs) then
            i.rhs <- Ir.map_rhs_operands resolve i.rhs;
          List.iter count (Ir.rhs_uses i.rhs)
        in
        List.iter visit b.phis;
        List.iter visit b.body;
        if List.exists replaced (Ir.term_operands b.term) then
          b.term <- Ir.map_term_operands resolve b.term;
        List.iter count (Ir.term_uses b.term))
      f.blocks;
    (* Prune unused φ-nodes ("pruned SSA"): the frontier placement inserts
       φs whether or not a read follows.  A φ whose use count is zero is
       dropped and releases its own operands, which may free the φs feeding
       it.  A dead φ cycle keeps its counts and survives, as a repeated
       rescan for unused φs would leave it. *)
    let dead = Hashtbl.create 16 in
    let rec release r =
      if not (Hashtbl.mem dead r) then begin
        Hashtbl.replace dead r ();
        List.iter
          (fun u ->
            match Hashtbl.find_opt uses u with
            | Some n ->
                Hashtbl.replace uses u (n - 1);
                if n = 1 then release u
            | None -> ())
          (Ir.rhs_uses (Hashtbl.find phi_defs r).rhs)
      end
    in
    Hashtbl.iter (fun r _ -> if not (Hashtbl.mem uses r) then release r) phi_defs;
    let is_dead (i : Ir.instr) =
      match (i.rhs, i.result) with Ir.Phi _, Some r -> Hashtbl.mem dead r | _ -> false
    in
    if Hashtbl.length dead > 0 then
      List.iter
        (fun (b : Ir.block) -> b.phis <- List.filter (fun i -> not (is_dead i)) b.phis)
        f.blocks;
    true
  end
