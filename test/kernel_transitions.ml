(** Real continuations for the differential tests: the feasible
    (point, plan) pairs of the 12 paper kernels, both directions, each
    feasible point contributing its live plan and then its avail plan.
    Built once and shared by [Suite_miniir], [Suite_passes] and
    [Suite_osrir]. *)

module Ir = Miniir.Ir
module Ctx = Osrir.Osr_ctx
module S = Osrir.Session

type transition = {
  name : string;  (** kernel, direction and point, for failure messages *)
  target : Ir.func;
  landing : int;
  plan : Osrir.Reconstruct_ir.plan;
}

(** The session of each kernel, in [Corpus.Kernels.all] order. *)
let versions : (string * S.t) list Lazy.t =
  lazy
    (List.map
       (fun (e : Corpus.Kernels.entry) ->
         (e.benchmark, S.create (fst (Corpus.Dsl.to_fbase e.kernel))))
       Corpus.Kernels.all)

let all : transition list Lazy.t =
  lazy
    (List.concat_map
       (fun (bench, s) ->
         List.concat_map
           (fun (dir, name) ->
             let target = (S.ctx s dir).dst.func in
             List.concat_map
               (fun (rep : Osrir.Feasibility.point_report) ->
                 match rep.landing with
                 | None -> []
                 | Some landing ->
                     List.filter_map
                       (Option.map (fun plan ->
                            let name = Printf.sprintf "%s %s #%d" bench name rep.point in
                            { name; target; landing; plan }))
                       [ rep.live_plan; rep.avail_plan ])
               (S.summary s dir).reports)
           [ (Ctx.Base_to_opt, "fwd"); (Ctx.Opt_to_base, "bwd") ])
       (Lazy.force versions))

(** Every 20th feasible (point, plan) pair. *)
let every_20th : transition list Lazy.t =
  lazy (List.filteri (fun k _ -> k mod 20 = 0) (Lazy.force all))
