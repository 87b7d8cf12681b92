(** The mem2reg pass as it was before the one-scan rewrite: a whole-function
    rescan per slot for promotability and store blocks, per-slot φ probes,
    [List.mem] slot tests and a full rescan per φ-pruning round.  Test-only
    reference for the differential tests in [Suite_passes] and
    [Suite_osrir]; the body below is kept verbatim. *)

module Ir = Miniir.Ir
module Dom = Miniir.Dom
module Func_index = Miniir.Func_index

(** mem2reg: promote alloca slots that are only loaded and stored into SSA
    registers, inserting φ-nodes at iterated dominance frontiers and
    renaming along the dominator tree.

    This is the front-end pass of the paper's pipeline — [fbase] is
    "clang -O0 followed by mem2reg" (Section 6.1) — so it runs {e before}
    OSR instrumentation and takes no CodeMapper. *)

module SMap = Map.Make (String)

(* Is this alloca promotable?  Its address must only appear as the address
   operand of loads and stores. *)
let promotable (f : Ir.func) (slot : Ir.reg) : bool =
  let ok = ref true in
  let check_value v = match v with Ir.Reg r when String.equal r slot -> ok := false | _ -> () in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.rhs with
          | Ir.Load (Ir.Reg r) when String.equal r slot -> ()
          | Ir.Store (v, Ir.Reg r) when String.equal r slot -> check_value v
          | rhs -> List.iter check_value (Ir.rhs_operands rhs))
        (Ir.block_instrs b);
      List.iter check_value (Ir.term_operands b.term))
    f.blocks;
  !ok

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

let run (f : Ir.func) : bool =
  let slots =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (fun (i : Ir.instr) ->
            match (i.rhs, i.result) with
            | Ir.Alloca 1, Some r when promotable f r -> Some (r, i.id)
            | _ -> None)
          b.body)
      f.blocks
  in
  if slots = [] then false
  else begin
    let slot_names = List.map fst slots in
    let dom = Dom.compute (Func_index.make_cfg f) in
    let df = Dom.frontiers dom in
    let children = dom_children dom in
    (* Blocks storing to each slot. *)
    let def_blocks slot =
      List.filter_map
        (fun (b : Ir.block) ->
          let stores =
            List.exists
              (fun (i : Ir.instr) ->
                match i.rhs with
                | Ir.Store (_, Ir.Reg r) -> String.equal r slot
                | _ -> false)
              b.body
          in
          if stores then Some b.label else None)
        f.blocks
    in
    (* φ placement: iterated dominance frontier. *)
    let phi_of : (string * string, Ir.instr) Hashtbl.t = Hashtbl.create 16 in
    (* (block, slot) → phi instr *)
    List.iter
      (fun slot ->
        let worklist = Queue.create () in
        List.iter (fun b -> Queue.push b worklist) (def_blocks slot);
        let placed = Hashtbl.create 8 in
        let enqueued = Hashtbl.create 8 in
        while not (Queue.is_empty worklist) do
          let b = Queue.pop worklist in
          List.iter
            (fun d ->
              if not (Hashtbl.mem placed d) then begin
                Hashtbl.add placed d ();
                let blk = Ir.block_exn f d in
                let preds = Ir.predecessors f d in
                let phi =
                  {
                    Ir.id = Ir.fresh_id f;
                    result = Some (Ir.fresh_reg ~hint:(slot ^ ".phi") f);
                    rhs = Ir.Phi (List.map (fun p -> (p, Ir.Undef)) preds);
                  }
                in
                blk.phis <- blk.phis @ [ phi ];
                Hashtbl.replace phi_of (d, slot) phi;
                if not (Hashtbl.mem enqueued d) then begin
                  Hashtbl.add enqueued d ();
                  Queue.push d worklist
                end
              end)
            (Option.value ~default:[] (Hashtbl.find_opt df b))
        done)
      slot_names;
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
      let blk = Ir.block_exn f label in
      let env = ref env in
      (* φ-nodes of this block define new current values. *)
      List.iter
        (fun (i : Ir.instr) ->
          List.iter
            (fun slot ->
              match Hashtbl.find_opt phi_of (label, slot) with
              | Some phi when phi.id = i.id -> (
                  match i.result with
                  | Some r -> env := SMap.add slot (Ir.Reg r) !env
                  | None -> ())
              | _ -> ())
            slot_names)
        blk.phis;
      (* Body: consume loads/stores of promotable slots. *)
      blk.body <-
        List.filter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Load (Ir.Reg a) when List.mem a slot_names ->
                let v =
                  match SMap.find_opt a !env with Some v -> resolve v | None -> Ir.Undef
                in
                (match i.result with
                | Some r -> Hashtbl.replace replacements r v
                | None -> ());
                false
            | Ir.Store (v, Ir.Reg a) when List.mem a slot_names ->
                env := SMap.add a (resolve v) !env;
                false
            | Ir.Alloca _ when
                (match i.result with Some r -> List.mem r slot_names | None -> false) ->
                false
            | _ -> true)
          blk.body;
      (* Fill φ incomings of successors from this edge. *)
      List.iter
        (fun s ->
          let sb = Ir.block_exn f s in
          List.iter
            (fun (phi : Ir.instr) ->
              List.iter
                (fun slot ->
                  match Hashtbl.find_opt phi_of (s, slot) with
                  | Some p when p.id = phi.id ->
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
                  | _ -> ())
                slot_names)
            sb.phis)
        (Ir.successors blk);
      List.iter
        (fun c -> walk c !env)
        (Option.value ~default:[] (Hashtbl.find_opt children label))
    in
    walk (Ir.entry f).label SMap.empty;
    (* Rewrite every remaining use of replaced load results. *)
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) -> i.rhs <- Ir.map_rhs_operands resolve i.rhs)
          (Ir.block_instrs b);
        b.term <- Ir.map_term_operands resolve b.term)
      f.blocks;
    (* Prune unused φ-nodes ("pruned SSA"): the frontier placement inserts
       φs whether or not a read follows; drop those nobody uses, repeating
       because φs feed each other. *)
    let changed = ref true in
    while !changed do
      changed := false;
      let used = Hashtbl.create 64 in
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              List.iter (fun r -> Hashtbl.replace used r ()) (Ir.rhs_uses i.rhs))
            (Ir.block_instrs b);
          List.iter (fun r -> Hashtbl.replace used r ()) (Ir.term_uses b.term))
        f.blocks;
      List.iter
        (fun (b : Ir.block) ->
          let keep (i : Ir.instr) =
            match (i.rhs, i.result) with
            | Ir.Phi _, Some r when not (Hashtbl.mem used r) ->
                changed := true;
                false
            | _ -> true
          in
          b.phis <- List.filter keep b.phis)
        f.blocks
    done;
    true
  end
