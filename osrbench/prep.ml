(** Set-up shared by the workloads: seeded inputs, reference outputs that
    do not depend on the compiler under test, and the compiled kernel
    versions the VM workloads run.

    References come from the reference interpreter ([Tinyvm.Interp]) run
    on the alloca-form output of [Dsl.lower]: no mem2reg, no pass, no
    compiled engine is involved in producing them. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility
module R = Osrir.Reconstruct_ir
module Interp = Tinyvm.Interp

let fuel = 50_000_000

(** An independent random stream for ([seed], [salt], [i]): the inputs of
    operation [i] depend on nothing else. *)
let rng (seed : int) (salt : int) (i : int) : Random.State.t = Random.State.make [| seed; salt; i |]

(** A seeded permutation of [0 .. n-1]. *)
let shuffle (st : Random.State.t) (n : int) : int array =
  let a = Array.init n Fun.id in
  for k = n - 1 downto 1 do
    let j = Random.State.int st (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done;
  a

(** [cycle ~seed ~salt n] maps operation index [i] to a stratum in
    [0 .. n-1]: each block of [n] consecutive operations visits every
    stratum once, in an order drawn from the seed. *)
let cycle ~(seed : int) ~(salt : int) (n : int) : int -> int =
  let memo = Hashtbl.create 16 in
  fun i ->
    let c = i / n in
    let perm =
      match Hashtbl.find_opt memo c with
      | Some p -> p
      | None ->
          let p = shuffle (rng seed salt c) n in
          Hashtbl.replace memo c p;
          p
    in
    perm.(i mod n)

(** Observable equality: return value and event trace.  Step counts are
    not compared; the alloca form executes more instructions. *)
let same_obs (o : Interp.outcome) (r : Interp.outcome) : bool =
  o.ret = r.ret && List.equal Interp.equal_event o.events r.events

let reference (raw : Ir.func) (args : int list) : Interp.outcome =
  match Interp.run ~fuel raw ~args with
  | Ok o -> o
  | Error t ->
      failwith (Fmt.str "reference run of %s %a trapped: %a" raw.Ir.fname
                  Fmt.(list ~sep:comma int) args Interp.pp_trap t)

(* ------------------------------------------------------------------ *)
(* Paper kernels                                                        *)
(* ------------------------------------------------------------------ *)

let data_seeds = 4

type kernel = {
  entry : Corpus.Kernels.entry;
  args : int list array;  (** one argument list per data seed *)
  refs : Interp.outcome array;  (** reference outcome per data seed *)
}

(** The 12 paper kernels, each with [data_seeds] seeded inputs (the
    kernel's default size, a seeded data-seed argument) and their
    reference outcomes. *)
let kernels ~(seed : int) : kernel array =
  Array.of_list
    (List.mapi
       (fun k (entry : Corpus.Kernels.entry) ->
         let raw, _ = Corpus.Dsl.lower entry.kernel in
         let st = rng seed 1 k in
         let size = List.hd entry.default_args in
         let args = Array.init data_seeds (fun _ -> [ size; 1 + Random.State.int st 999_999 ]) in
         { entry; args; refs = Array.map (reference raw) args })
       Corpus.Kernels.all)

type feasible = { point : int; landing : int; plan : R.plan }

(** One OSR direction of a compiled kernel. *)
type direction = {
  dname : string;  (** ["fwd"] (fbase→fopt) or ["bwd"] (fopt→fbase) *)
  src : Ir.func;
  dst : Ir.func;
  points : int list;  (** every source point *)
  feasible : feasible array;
}

type compiled = { k : kernel; dirs : direction array  (** fwd, bwd *) }

let feasible_points (s : F.summary) : feasible array =
  List.filter_map
    (fun (r : F.point_report) ->
      match (r.classification, r.landing, r.live_plan, r.avail_plan) with
      | F.Infeasible, _, _, _ | _, None, _, _ -> None
      | _, Some landing, Some plan, _ | _, Some landing, None, Some plan ->
          Some { point = r.point; landing; plan }
      | _, Some _, None, None -> None)
    s.reports
  |> Array.of_list

(** Optimize a kernel and classify the points of both directions. *)
let compile_kernel (k : kernel) : compiled =
  let fbase, _ = Corpus.Dsl.to_fbase k.entry.kernel in
  let r = P.apply fbase in
  let fwd, bwd = Ctx.make_pair ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper () in
  let dir dname ctx src dst =
    { dname; src; dst; points = Ctx.source_points ctx; feasible = feasible_points (F.analyze ctx) }
  in
  { k; dirs = [| dir "fwd" fwd r.fbase r.fopt; dir "bwd" bwd r.fopt r.fbase |] }

(** How often each instruction id is reached when [f] runs on [args],
    counted by stepping the reference interpreter. *)
let arrivals (f : Ir.func) (args : int list) : int array =
  let counts = Array.make (f.Ir.next_id + 1) 0 in
  let m = Interp.create ~fuel f ~args in
  let rec go () =
    match Interp.next_instr_id m with
    | None -> ()
    | Some id -> (
        if id >= 0 && id < Array.length counts then counts.(id) <- counts.(id) + 1;
        match Interp.step m with Interp.Running -> go () | _ -> ())
  in
  go ();
  counts

(* ------------------------------------------------------------------ *)
(* Section 7 study functions                                            *)
(* ------------------------------------------------------------------ *)

(** Every (profile, index) pair of the study corpus.  Drawing uniformly
    from it weights each profile by its [total_scaled]. *)
let study_population : (Corpus.Spec_c.profile * int) array =
  Array.of_list
    (List.concat_map
       (fun (p : Corpus.Spec_c.profile) -> List.init p.total_scaled (fun i -> (p, i)))
       Corpus.Spec_c.profiles)

(** The DSL kernel behind [Spec_c.gen_function prof index], rebuilt from
    the same seeded generator so its alloca form can serve as the
    reference.  Callers check that it promotes to the same [fbase]. *)
let study_kernel (prof : Corpus.Spec_c.profile) (index : int) : Corpus.Dsl.kernel =
  let open Corpus.Dsl in
  let pool = Corpus.Spec_c.locals_pool in
  let st = Random.State.make [| Hashtbl.hash (prof.bench, index, "osr-distilled") |] in
  let n = prof.size_lo + Random.State.int st (prof.size_hi - prof.size_lo + 1) in
  let body = Corpus.Spec_c.gen_stmts st prof ~depth:2 n in
  let ret = List.fold_left (fun acc u -> Bin (Ir.Add, acc, Slot u)) (Slot (List.hd pool)) (List.tl pool) in
  {
    kname = Printf.sprintf "%s_fn%03d" prof.bench index;
    params = [ "x"; "y" ];
    arrays = [ ("data", 16) ];
    locals = pool;
    body;
    ret;
  }
