open Import

(** Shared context for IR-level OSR mapping construction between a base
    function and its optimized clone: direction handling, point
    correspondence (the Δ of Section 4.2), and value correspondence derived
    from the CodeMapper's action history (Section 5.1).

    Performance architecture: each side carries a {!Func_index.t} — an
    immutable snapshot index of its function — and every side analysis
    (dominators, liveness, loops) is derived from that index exactly once
    in {!make_side}.  The context additionally owns the cross-point caches
    that make the per-point feasibility sweep near-linear: the landing-point
    table (all landing points of a block from one backward scan) and memo
    tables for candidate search, re-execution consistency, load-safety
    walks and gate identification, all of which depend only on the
    (immutable during analysis) function pair. *)

type direction = Base_to_opt | Opt_to_base

(** When is an interned candidate available in the source frame? *)
type avail_key =
  | Always  (** constants and parameters *)
  | Never  (** [Undef] or not part of the source frame *)
  | At of { block : string; idx : int; rpo : int }
      (** definition site: block label, position inside the block, and the
          block's reverse-postorder index ([-1] when unreachable) *)

(** A source candidate with its availability and liveness keys resolved
    once: testing it against a program point is then pure array and bit
    work — no hashing, no table lookups. *)
type cand = {
  cv : Ir.value;
  akey : avail_key;
  live_id : int;  (** interned liveness id; [-1] = always live (constants) *)
}

(** Resolved query environment of one source program point (the point's
    block coordinates and live-before bitset), computed once per point. *)
type penv = {
  pe_block : string;
  pe_idx : int;
  pe_rpo : int;  (** rpo of the block; [-1] unreachable, [-2] unknown point *)
  pe_bits : Liveness.Bits.t option;
}

type side = {
  func : Ir.func;
  index : Func_index.t;
  dom : Dom.t;
  live : Liveness.t;
  loops : Loops.t;
}

let make_side (f : Ir.func) : side =
  let index = Func_index.make f in
  let dom = Dom.compute index.cfg in
  { func = f; index; dom; live = Liveness.compute f; loops = Loops.compute index dom }

type t = {
  fbase : Ir.func;
  fopt : Ir.func;
  mapper : Code_mapper.t;
  direction : direction;
  src : side;  (** where execution currently is *)
  dst : side;  (** where execution lands *)
  (* Sweep caches (valid because neither function changes once the context
     exists).  All are lazy: a context built for a single query pays for
     nothing it does not use. *)
  mutable landing_tbl : (int, int) Hashtbl.t option;
      (** source point → landing anchor; absent key = no landing *)
  cand_cache : (Ir.reg, cand list) Hashtbl.t;  (** with replace-alias reuse *)
  cand_cache_plain : (Ir.reg, cand list) Hashtbl.t;  (** name-stability only *)
  mutable last_env : (int * penv) option;  (** one-slot point-env cache *)
  reexec_cache : (int * int, bool) Hashtbl.t;  (** (def_id, landing) *)
  load_safe_cache : (int * int, bool) Hashtbl.t;  (** (def_id, landing) *)
  gate_cache : (int, (Ir.reg * Ir.value * Ir.value * int) option) Hashtbl.t;
      (** φ instruction id → gate decomposition *)
}

let of_sides ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapper : Code_mapper.t)
    ~(base_side : side) ~(opt_side : side) (direction : direction) : t =
  let src, dst =
    match direction with
    | Base_to_opt -> (base_side, opt_side)
    | Opt_to_base -> (opt_side, base_side)
  in
  {
    fbase;
    fopt;
    mapper;
    direction;
    src;
    dst;
    landing_tbl = None;
    cand_cache = Hashtbl.create 64;
    cand_cache_plain = Hashtbl.create 16;
    last_env = None;
    reexec_cache = Hashtbl.create 256;
    load_safe_cache = Hashtbl.create 64;
    gate_cache = Hashtbl.create 16;
  }

let make ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapper : Code_mapper.t)
    (direction : direction) : t =
  of_sides ~fbase ~fopt ~mapper ~base_side:(make_side fbase) ~opt_side:(make_side fopt)
    direction

(** Both directions over one pair of side analyses: the forward and
    backward sweeps see the same two functions, so dominators, liveness,
    loops and the index are computed once instead of twice. *)
let make_pair ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapper : Code_mapper.t) () : t * t =
  let base_side = make_side fbase and opt_side = make_side fopt in
  ( of_sides ~fbase ~fopt ~mapper ~base_side ~opt_side Base_to_opt,
    of_sides ~fbase ~fopt ~mapper ~base_side ~opt_side Opt_to_base )

(** Has instruction [id] been moved between blocks by the optimizer? *)
let is_moved (t : t) (id : int) : bool = Hashtbl.mem t.mapper.moved id

(* ------------------------------------------------------------------ *)
(* Point correspondence (Δ)                                             *)
(* ------------------------------------------------------------------ *)

(* A point id is a valid correspondence anchor when it exists on both sides
   and was not moved between blocks: both versions being "about to execute
   #id" are then the same control state (stores are never moved, so memory
   also agrees — the store invariant of Section 5.3). *)
let anchor (t : t) (id : int) : bool =
  Hashtbl.mem t.src.index.Func_index.positions id
  && Hashtbl.mem t.dst.index.Func_index.positions id
  && not (is_moved t id)

(** The OSR point universe on the source side: every body instruction and
    terminator (φ-nodes are not program locations, mirroring the paper's
    "IR conditionals and assignment instructions determine locations"). *)
let source_points (t : t) : int list =
  List.concat_map
    (fun (b : Ir.block) ->
      List.map (fun (i : Ir.instr) -> i.id) b.body @ [ b.term_id ])
    t.src.func.blocks

(* All landing points at once: one backward walk per source block keeps the
   nearest anchor at-or-after the cursor, so the whole table costs O(points)
   instead of the O(block²) of rescanning the suffix for every point. *)
let landing_table (t : t) : (int, int) Hashtbl.t =
  match t.landing_tbl with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 256 in
      List.iter
        (fun (b : Ir.block) ->
          let cur = ref (if anchor t b.term_id then Some b.term_id else None) in
          (match !cur with Some a -> Hashtbl.replace tbl b.term_id a | None -> ());
          List.iter
            (fun (i : Ir.instr) ->
              if anchor t i.id then cur := Some i.id;
              match !cur with Some a -> Hashtbl.replace tbl i.id a | None -> ())
            (List.rev b.body))
        t.src.func.blocks;
      t.landing_tbl <- Some tbl;
      tbl

(** Landing point in the destination for source point [p]: the first anchor
    at or after [p] in [p]'s source block (skipping instructions the
    optimizer deleted or moved away), or [None] when the whole remainder of
    the block has no anchor (e.g. the block does not exist on the other
    side). *)
let landing_point (t : t) (p : int) : int option =
  Hashtbl.find_opt (landing_table t) p

(** A domain-private view of this context for the parallel sweep: the
    immutable inputs (functions, side analyses, mapper, landing table) are
    shared, every memo the per-point queries write is fresh.  The shared
    pieces are made read-only first — the landing table is forced here and
    the mapper's alias inverse is primed — so forks can query concurrently
    without a single lock on the analysis hot path.  The parent must not
    run pass pipelines over either function while forks are live (contexts
    are only ever built over functions that no longer change). *)
let fork (t : t) : t =
  let landing = landing_table t in
  Code_mapper.prime_aliases t.mapper;
  let fork_side (s : side) : side = { s with live = Liveness.fork s.live } in
  {
    t with
    src = fork_side t.src;
    dst = fork_side t.dst;
    landing_tbl = Some landing;
    cand_cache = Hashtbl.create 64;
    cand_cache_plain = Hashtbl.create 16;
    last_env = None;
    reexec_cache = Hashtbl.create 256;
    load_safe_cache = Hashtbl.create 64;
    gate_cache = Hashtbl.create 16;
  }

(* ------------------------------------------------------------------ *)
(* Value correspondence                                                 *)
(* ------------------------------------------------------------------ *)

let in_src_frame (t : t) (r : Ir.reg) : bool =
  Hashtbl.mem t.src.index.Func_index.defs r || Func_index.is_param t.src.index r

(* Intern one candidate value: resolve its availability site and liveness
   id once, so point-by-point tests need no further table lookups. *)
let make_cand (t : t) (v : Ir.value) : cand =
  match v with
  | Ir.Const _ -> { cv = v; akey = Always; live_id = -1 }
  | Ir.Undef -> { cv = v; akey = Never; live_id = -1 }
  | Ir.Reg y ->
      let live_id = Option.value ~default:(-1) (Liveness.id_of t.src.live y) in
      let akey =
        if Func_index.is_param t.src.index y then Always
        else
          match Hashtbl.find_opt t.src.index.Func_index.defs y with
          | None -> Never
          | Some (d : Ir.def_site) -> (
              match Func_index.position_of t.src.index d.di.id with
              | None -> Never
              | Some (block, idx) ->
                  let rpo =
                    Option.value ~default:(-1)
                      (Hashtbl.find_opt t.src.dom.Dom.index block)
                  in
                  At { block; idx; rpo })
      in
      { cv = v; akey; live_id }

(** Interned source candidates for destination register [x']: name
    stability plus the replace-action equivalences (Section 5.4's "implicit
    aliasing information"), most specific first.  Memoized per context: the
    answer depends only on the function pair and the action history. *)
let candidates ?(use_aliases = true) (t : t) (x' : Ir.reg) : cand list =
  let cache = if use_aliases then t.cand_cache else t.cand_cache_plain in
  match Hashtbl.find_opt cache x' with
  | Some cs -> cs
  | None ->
      let name_based = if in_src_frame t x' then [ Ir.Reg x' ] else [] in
      let from_replacements =
        if not use_aliases then []
        else
          match t.direction with
          | Base_to_opt ->
              (* Base registers whose replacement chain resolves to x' hold
                 the same value (CSE kept x', deleted them). *)
              List.filter_map
                (fun alias ->
                  if String.equal alias x' then None
                  else if in_src_frame t alias then Some (Ir.Reg alias)
                  else None)
                (Code_mapper.base_aliases_of t.mapper x')
          | Opt_to_base -> (
              (* x' is a base register; its replacement tells us what holds
                 the value in the optimized code. *)
              match Code_mapper.resolve_replacement t.mapper x' with
              | Some (Ir.Const c) -> [ Ir.Const c ]
              | Some (Ir.Reg r') when in_src_frame t r' -> [ Ir.Reg r' ]
              | Some _ | None -> [])
      in
      let cs = List.map (make_cand t) (name_based @ from_replacements) in
      Hashtbl.replace cache x' cs;
      cs

(** Source-side values holding the same run-time value as destination
    register [x'] (the un-interned view of {!candidates}). *)
let source_candidates ?(use_aliases = true) (t : t) (x' : Ir.reg) : Ir.value list =
  List.map (fun c -> c.cv) (candidates ~use_aliases t x')

(** Resolved query environment of source point [p] (one-slot cache: the
    sweep asks about one point many times in a row). *)
let point_env (t : t) (p : int) : penv =
  match t.last_env with
  | Some (q, e) when q = p -> e
  | _ ->
      let pe_bits = Liveness.bits_at t.src.live p in
      let e =
        match Func_index.position_of t.src.index p with
        | None -> { pe_block = ""; pe_idx = 0; pe_rpo = -2; pe_bits }
        | Some (block, idx) ->
            let rpo =
              Option.value ~default:(-1) (Hashtbl.find_opt t.src.dom.Dom.index block)
            in
            { pe_block = block; pe_idx = idx; pe_rpo = rpo; pe_bits }
      in
      t.last_env <- Some (p, e);
      e

(** Availability of an interned candidate at a point: the SSA definedness
    test of {!available_in_src} over pre-resolved coordinates. *)
let cand_available (t : t) (e : penv) (c : cand) : bool =
  match c.akey with
  | Always -> true
  | Never -> false
  | At { block; idx; rpo } ->
      if e.pe_rpo = -2 then false
      else if String.equal block e.pe_block then idx < e.pe_idx
      else if e.pe_rpo = -1 then true  (* unreachable points are vacuously dominated *)
      else
        rpo >= 0
        && (let d = t.src.dom in
            d.Dom.tin.(rpo) <= d.Dom.tin.(e.pe_rpo)
            && d.Dom.tout.(e.pe_rpo) <= d.Dom.tout.(rpo))

let cand_live (e : penv) (c : cand) : bool =
  c.live_id < 0
  || (match e.pe_bits with Some b -> Liveness.Bits.mem b c.live_id | None -> false)

(** Is [v] available in the source frame at source point [src_point]?
    Constants always; registers when they are parameters or their
    definition dominates the point (SSA definedness). *)
let available_in_src (t : t) ~(src_point : int) (v : Ir.value) : bool =
  match v with
  | Ir.Const _ -> true
  | Ir.Undef -> false
  | Ir.Reg y ->
      Func_index.is_param t.src.index y
      || (match Hashtbl.find_opt t.src.index.Func_index.defs y with
         | Some (d : Ir.def_site) ->
             Dom.instr_dominates t.src.dom t.src.index.Func_index.positions ~def_id:d.di.id
               ~use_id:src_point
         | None -> false)

(** May the destination definition at instruction [def_id] be re-executed
    when the machine state corresponds to [landing]?  Re-execution reads the
    {e current} values of the definition's operands, which equal the values
    of its own last execution only when no loop iteration boundary separates
    the two: every natural loop containing the definition must also contain
    the landing point (same-iteration consistency).  A loop-defined value
    needed after its loop cannot be recomputed — only the frame still holds
    its final value, which is precisely what the [avail] variant exploits. *)
let reexec_consistent (t : t) ~(def_id : int) ~(landing : int) : bool =
  match Hashtbl.find_opt t.reexec_cache (def_id, landing) with
  | Some b -> b
  | None ->
      let b =
        match (Func_index.owner_of t.dst.index def_id, Func_index.owner_of t.dst.index landing)
        with
        | Some def_block, Some landing_block ->
            List.for_all
              (fun (l : Loops.loop) ->
                (not (Loops.in_loop l def_block)) || Loops.in_loop l landing_block)
              t.dst.loops.loops
        | _, _ -> false
      in
      Hashtbl.replace t.reexec_cache (def_id, landing) b;
      b

let live_in_src (t : t) ~(src_point : int) (v : Ir.value) : bool =
  match v with
  | Ir.Const _ -> true
  | Ir.Undef -> false
  | Ir.Reg y -> Liveness.is_live t.src.live src_point y
