(** SSA well-formedness checks for MiniIR functions, run by tests and by
    the pass manager after every pass:

    - block labels unique, terminator targets exist
    - instruction ids unique
    - every register defined at most once (SSA single assignment)
    - φ-nodes only at block tops, with exactly one incoming per predecessor
    - non-φ uses dominated by their definitions
    - φ incomings dominated at the end of the corresponding predecessor
    - entry block has no φ-nodes and no predecessors *)

type error = { where : string; what : string }

let pp_error ppf (e : error) = Fmt.pf ppf "%s: %s" e.where e.what

(** Check [f]; on success, return the index and dominators the check
    built from [f] (the pass manager hands them to the next pass). *)
let verify (f : Ir.func) : (Func_index.t * Dom.t, error list) result =
  let index = Func_index.make f in
  let errs = ref [] in
  let err where fmt = Printf.ksprintf (fun what -> errs := { where; what } :: !errs) fmt in
  (* Labels unique *)
  let labels = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      if Hashtbl.mem labels b.label then err b.label "duplicate block label"
      else Hashtbl.add labels b.label ())
    f.blocks;
  (* Terminator targets exist *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun s -> if not (Hashtbl.mem labels s) then err b.label "branch to unknown block %s" s)
        (Ir.successors b))
    f.blocks;
  (* Instruction ids unique; registers single-assignment *)
  let ids = Hashtbl.create 64 in
  let defs = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace defs p `Param) f.params;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          if Hashtbl.mem ids i.id then err b.label "duplicate instruction id %d" i.id
          else Hashtbl.add ids i.id ();
          match i.result with
          | Some r ->
              if Hashtbl.mem defs r then err b.label "register %%%s defined twice" r
              else Hashtbl.replace defs r `Instr
          | None -> ())
        (Ir.block_instrs b);
      if Hashtbl.mem ids b.term_id then err b.label "duplicate terminator id %d" b.term_id
      else Hashtbl.add ids b.term_id ())
    f.blocks;
  (* φ shape: one incoming per predecessor, and only among phis *)
  List.iter
    (fun (b : Ir.block) ->
      let preds = List.sort_uniq compare (Func_index.predecessors index b.label) in
      List.iter
        (fun (i : Ir.instr) ->
          match i.rhs with
          | Ir.Phi incoming ->
              let inc = List.sort_uniq compare (List.map fst incoming) in
              if inc <> preds then
                err b.label "phi #%d incoming {%s} but predecessors {%s}" i.id
                  (String.concat "," inc) (String.concat "," preds)
          | _ -> err b.label "non-phi instruction #%d in phi section" i.id)
        b.phis;
      List.iter
        (fun (i : Ir.instr) ->
          match i.rhs with
          | Ir.Phi _ -> err b.label "phi #%d in body section" i.id
          | _ -> ())
        b.body)
    f.blocks;
  (* Entry: no phis, no predecessors *)
  (match f.blocks with
  | e :: _ ->
      if e.phis <> [] then err e.label "entry block has phi-nodes";
      if Func_index.predecessors index e.label <> [] then err e.label "entry block has predecessors"
  | [] -> err f.fname "function has no blocks");
  (* Dominance of uses (only meaningful if structure is sane so far) *)
  if !errs <> [] then Error (List.rev !errs)
  else begin
    let dom = Dom.compute index.cfg in
    let positions = index.Func_index.positions in
    let def_tbl = index.Func_index.defs in
    let def_id_of r = Option.map (fun (d : Ir.def_site) -> d.di.id) (Hashtbl.find_opt def_tbl r) in
    let check_use (b : Ir.block) (use_id : int) (r : Ir.reg) =
      if not (Func_index.is_param index r) then
        match def_id_of r with
        | None -> err b.label "use of undefined register %%%s at #%d" r use_id
        | Some def_id ->
            if Dom.reachable dom b.label
               && not (Dom.instr_dominates dom positions ~def_id ~use_id)
            then err b.label "use of %%%s at #%d not dominated by its definition #%d" r use_id def_id
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Phi incoming ->
                (* φ incomings must be defined at the end of their pred. *)
                List.iter
                  (fun (pred, v) ->
                    match v with
                    | Ir.Reg r when not (Func_index.is_param index r) -> (
                        match Hashtbl.find_opt def_tbl r with
                        | None -> err b.label "phi #%d reads undefined %%%s" i.id r
                        | Some d ->
                            if Dom.reachable dom pred
                               && not (Dom.dominates_block dom ~a:d.block ~b:pred)
                            then
                              err b.label "phi #%d incoming %%%s from %s not available there"
                                i.id r pred)
                    | Ir.Reg _ | Ir.Const _ | Ir.Undef -> ())
                  incoming
            | _ -> List.iter (check_use b i.id) (Ir.rhs_uses i.rhs))
          (Ir.block_instrs b);
        List.iter (check_use b b.term_id) (Ir.term_uses b.term))
      f.blocks;
    match !errs with [] -> Ok (index, dom) | es -> Error (List.rev es)
  end

(** Raise [Failure] with a readable message if verification fails. *)
let verify_exn (f : Ir.func) : unit =
  match verify f with
  | Ok _ -> ()
  | Error es ->
      failwith
        (Fmt.str "IR verification failed for @%s:@.%a@.%s" f.fname
           (Fmt.list ~sep:Fmt.cut pp_error) es (Ir.func_to_string f))
