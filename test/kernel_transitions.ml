(** Real continuations for the differential tests: the feasible
    (point, plan) pairs of the 12 paper kernels, both directions, each
    feasible point contributing its live plan and then its avail plan.
    Built once and shared by [Suite_miniir], [Suite_passes] and
    [Suite_osrir]. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility

type transition = {
  name : string;  (** kernel, direction and point, for failure messages *)
  target : Ir.func;
  landing : int;
  plan : Osrir.Reconstruct_ir.plan;
}

(** [fbase] and [fopt] of each kernel, in [Corpus.Kernels.all] order. *)
let versions : (string * P.apply_result) list Lazy.t =
  lazy
    (List.map
       (fun (e : Corpus.Kernels.entry) ->
         let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
         (e.benchmark, P.apply fbase))
       Corpus.Kernels.all)

let all : transition list Lazy.t =
  lazy
    (List.concat_map
       (fun (bench, (r : P.apply_result)) ->
         let fwd, bwd = Ctx.make_pair ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper () in
         List.concat_map
           (fun (dir, ctx, target) ->
             List.concat_map
               (fun (rep : F.point_report) ->
                 match rep.landing with
                 | None -> []
                 | Some landing ->
                     List.filter_map
                       (Option.map (fun plan ->
                            let name = Printf.sprintf "%s %s #%d" bench dir rep.point in
                            { name; target; landing; plan }))
                       [ rep.live_plan; rep.avail_plan ])
               (F.analyze ctx).reports)
           [ ("fwd", fwd, r.fopt); ("bwd", bwd, r.fbase) ])
       (Lazy.force versions))

(** Every 20th feasible (point, plan) pair. *)
let every_20th : transition list Lazy.t =
  lazy (List.filteri (fun k _ -> k mod 20 = 0) (Lazy.force all))
