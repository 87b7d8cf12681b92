(** What one phase of a run measured: latency samples, integer counts and
    failed operations.

    Counts are kept twice: over every operation of the phase, and over the
    fixed batch alone (operations [0 .. batch-1]).  The batch counts depend
    only on the seed, so they form the run's determinism fingerprint. *)

(* A growable float array: samples stay unboxed, so a long run's own
   bookkeeping barely moves the heap figures it reports. *)
type series = { mutable data : float array; mutable len : int }

type t = {
  batch : int;
  samples : (string, series) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
  batch_counts : (string, int ref) Hashtbl.t;
  mutable ops : int;
  mutable failed : int;
  mutable last_failed : int;
  mutable messages : string list;  (** first failure messages, reversed *)
}

let create ~(batch : int) : t =
  {
    batch;
    samples = Hashtbl.create 64;
    counts = Hashtbl.create 32;
    batch_counts = Hashtbl.create 32;
    ops = 0;
    failed = 0;
    last_failed = -1;
    messages = [];
  }

let cell tbl key zero =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
      let r = ref zero in
      Hashtbl.replace tbl key r;
      r

let series (a : t) (key : string) : series =
  match Hashtbl.find_opt a.samples key with
  | Some s -> s
  | None ->
      let s = { data = Array.make 16 0.0; len = 0 } in
      Hashtbl.replace a.samples key s;
      s

let sample (a : t) (key : string) (v : float) : unit =
  let s = series a key in
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

(** Add [n] to count [key] on behalf of operation [op]. *)
let add (a : t) ~(op : int) (key : string) (n : int) : unit =
  let r = cell a.counts key 0 in
  r := !r + n;
  if op < a.batch then begin
    let r = cell a.batch_counts key 0 in
    r := !r + n
  end

(** Record that operation [op] failed; an operation counts once however
    many of its checks fail. *)
let fail (a : t) ~(op : int) (msg : string) : unit =
  if a.last_failed <> op then begin
    a.failed <- a.failed + 1;
    a.last_failed <- op
  end;
  if List.length a.messages < 5 then
    a.messages <- Printf.sprintf "op %d: %s" op msg :: a.messages

(** [check a ~op ~what ok] counts one check of kind [what] and records a
    failure when [ok] is false. *)
let check (a : t) ~(op : int) ~(what : string) (ok : bool) : unit =
  add a ~op ("check." ^ what) 1;
  if not ok then fail a ~op (what ^ " check failed")

let samples (a : t) (key : string) : float array =
  match Hashtbl.find_opt a.samples key with
  | Some s -> Array.sub s.data 0 s.len
  | None -> [||]

let count (a : t) (key : string) : int =
  match Hashtbl.find_opt a.counts key with Some r -> !r | None -> 0

let batch_count (a : t) (key : string) : int =
  match Hashtbl.find_opt a.batch_counts key with Some r -> !r | None -> 0

(** The batch counts, sorted by key: equal seeds must give equal lists. *)
let fingerprint (a : t) : (string * int) list =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) a.batch_counts []
  |> List.sort compare

(** Percentile [q] (0..1) of [xs], interpolating linearly between order
    statistics. *)
let percentile (xs : float array) (q : float) : float =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median (xs : float array) : float = percentile xs 0.5

(* Stratified latency.  Each operation is drawn from an input class (a
   kernel, a kernel and version or direction, a study function): its
   stratum.  On a shared machine single operations are inflated by half or
   more by bursts of interference, and the plain median of an equal mix of
   12 or 24 classes sits exactly on a class boundary, where it jumps with
   the two classes' extreme samples.  The stratified figures replace every
   operation's time by its stratum's median first. *)

(** [(operations, median)] of every stratum of [key] (samples recorded
    under ["key@<stratum>"]), sorted by median. *)
let strata (a : t) (key : string) : (int * float) list =
  let prefix = key ^ "@" in
  Hashtbl.fold
    (fun k s acc ->
      if String.starts_with ~prefix k then (s.len, median (Array.sub s.data 0 s.len)) :: acc
      else acc)
    a.samples []
  |> List.sort (fun (_, x) (_, y) -> compare x y)

(** Quantile [q] of the stratum medians, each weighted by its operation
    count and placed at the midpoint of its cumulative weight, linearly
    interpolated between neighbours: continuous in the weights, so a
    partial round of draws moves it only a little. *)
let stratified_quantile (a : t) (key : string) (q : float) : float =
  let st = strata a key in
  let total = float_of_int (List.fold_left (fun acc (n, _) -> acc + n) 0 st) in
  let _, points =
    List.fold_left
      (fun (cum, pts) (n, m) ->
        let w = float_of_int n in
        (cum +. w, ((cum +. (w /. 2.0)) /. total, m) :: pts))
      (0.0, []) st
  in
  match List.rev points with
  | [] -> nan
  | (p0, m0) :: _ as pts ->
      if q <= p0 then m0
      else
        let rec go = function
          | (p1, m1) :: ((p2, m2) :: _ as rest) ->
              if q <= p2 then m1 +. ((q -. p1) /. (p2 -. p1) *. (m2 -. m1)) else go rest
          | [ (_, m) ] -> m
          | [] -> nan
        in
        go pts

(** Seconds the operations of [key] take at their strata's median times. *)
let stratified_seconds (a : t) (key : string) : float =
  List.fold_left (fun acc (n, m) -> acc +. (float_of_int n *. m)) 0.0 (strata a key) /. 1000.0
