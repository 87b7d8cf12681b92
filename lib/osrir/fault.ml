open Import

(** Deterministic, seed-driven fault injection for OSR transitions.

    The injector plugs into {!Osr_runtime.hooks} — the only seams the
    runtime exposes — so faults exercise exactly the paths a hostile
    environment could: a guard that misfires or traps, a reconstructed
    slot left undefined, a trap in the middle of the compensation code, a
    fuel budget that runs out at the transition.

    Determinism matters more than distribution quality here: a failing
    seed must replay bit-identically, so decisions come from an explicit
    splitmix-style LCG on the native int (never [Random], whose global
    state other code could disturb).  Every injected decision is recorded
    in {!injected}, letting the robustness suite assert the right branch
    of the recovery invariant for what actually happened. *)

type kind =
  | Misfire  (** force the guard to answer [true] *)
  | Suppress  (** force the guard to answer [false] *)
  | Guard_trap  (** make the guard trap *)
  | Chi_trap  (** trap mid-χ, after the compensation code started *)
  | Poison  (** un-define one reconstructed live-in register *)
  | Fuel_cut  (** cap the continuation's fuel at the transition *)

let all_kinds = [ Misfire; Suppress; Guard_trap; Chi_trap; Poison; Fuel_cut ]

let kind_to_string = function
  | Misfire -> "misfire"
  | Suppress -> "suppress"
  | Guard_trap -> "guard-trap"
  | Chi_trap -> "chi-trap"
  | Poison -> "poison"
  | Fuel_cut -> "fuel-cut"

type t = {
  seed : int;
  mutable state : int;
  mutable injected : (kind * int) list;  (** reversed (kind, site id) log *)
}

let make ~seed = { seed; state = seed lxor 0x1E3779B97F4A7C15; injected = [] }

(* One LCG step; the high bits are the good ones. *)
let next (t : t) : int =
  t.state <- (t.state * 2862933555777941757) + 3037000493;
  (t.state lsr 17) land 0x3FFFFFFF

let draw (t : t) (n : int) : int = next t mod n
let note (t : t) (k : kind) (at : int) : unit = t.injected <- (k, at) :: t.injected
let injected (t : t) : (kind * int) list = List.rev t.injected

(** Hooks driven by [t].  With [only], that fault fires deterministically
    at every decision point of its kind (and no other fault fires) — the
    mode the CLI's [--inject=KIND] and the targeted tests use.  Without
    it, each decision point injects with a small seed-driven probability —
    the randomized-suite mode. *)
let hooks ?only (t : t) : Osr_runtime.hooks =
  let fire k p =
    match only with Some k' -> k = k' | None -> draw t p = 0
  in
  {
    Osr_runtime.h_guard_trap =
      (fun ~at ->
        if fire Guard_trap 13 then begin
          note t Guard_trap at;
          Some (Interp.Undef_read at)
        end
        else None);
    h_guard_override =
      (fun ~at ->
        if fire Misfire 7 then begin
          note t Misfire at;
          Some true
        end
        else if fire Suppress 13 then begin
          note t Suppress at;
          Some false
        end
        else None);
    h_chi_trap =
      (fun ~at ->
        if fire Chi_trap 5 then begin
          note t Chi_trap at;
          Some (Interp.Division_by_zero at)
        end
        else None);
    h_poison =
      (fun ~at ~live_in ->
        if live_in <> [] && fire Poison 5 then begin
          note t Poison at;
          Some (List.nth live_in (draw t (List.length live_in)))
        end
        else None);
    h_fuel_cut =
      (fun ~at ->
        if fire Fuel_cut 7 then begin
          note t Fuel_cut at;
          Some (draw t 4)
        end
        else None);
  }
