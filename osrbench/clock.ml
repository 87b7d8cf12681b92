(** The benchmark's clock: CPU time of this process, rescaled to a
    reference machine speed.

    On a shared host the same code runs up to 1.6 times slower for minutes
    at a time (other tenants load the cores; the host changes clock speed),
    and CPU time slows down with it.  So between operations, at most every
    [interval] seconds of wall time, the benchmark times a fixed
    calibration loop that uses no code of the system under test, and keeps
    the median of the last [window] timings.  The clock then advances at
    [reference / median] reference seconds per CPU second: one reference
    second is the time the machine needs for [1 / reference] calibration
    loops.  The scale only changes between operations.

    The single-threaded benchmark does no I/O, so its CPU time is its wall
    time minus the time the host did not run it. *)

(* CPU seconds the calibration loop took on the machine the bounds were set
   on (2-vCPU Xeon virtual machine, uncontended); it makes one reference
   second about one second there. *)
let reference = 0.0008
let interval = 0.025
let window = 9

(* Allocation, hashing, list traversal and array sorting: the kind of work
   the compiler and VM layers do, from the standard library alone. *)
let calibration_loop () : int =
  let h = Hashtbl.create 256 in
  for i = 0 to 3999 do
    let k = (i * 7919) land 1023 in
    Hashtbl.replace h k (i :: Option.value ~default:[] (Hashtbl.find_opt h k))
  done;
  let n = Hashtbl.fold (fun _ l acc -> acc + List.length l) h 0 in
  let a = Array.init 2048 (fun i -> (i * 2654435761) land 0xffff) in
  Array.sort compare a;
  Sys.opaque_identity (n + a.(1000))

let timings = Array.make window 0.0
let taken = ref 0
let last_wall = ref neg_infinity
let scale = ref 1.0
let base_cpu = ref 0.0
let base_ref = ref 0.0

(** Reference seconds since the program started. *)
let now () : float = !base_ref +. ((Sys.time () -. !base_cpu) *. !scale)

(** Median CPU seconds of the calibration loop over the window. *)
let calibration_s () : float =
  let k = min !taken window in
  let a = Array.sub timings 0 k in
  Array.sort compare a;
  a.(k / 2)

let calibrate () : unit =
  let t0 = Sys.time () in
  ignore (calibration_loop () : int);
  let c = Sys.time () in
  timings.(!taken mod window) <- c -. t0;
  incr taken;
  (* Rebase so that reference time stays continuous across the change. *)
  base_ref := !base_ref +. ((t0 -. !base_cpu) *. !scale);
  base_cpu := c;
  scale := reference /. calibration_s ()

(** Recalibrate if [interval] seconds of wall time have passed since the
    last calibration.  Call only between timed operations. *)
let tick () : unit =
  let w = Unix.gettimeofday () in
  if w -. !last_wall >= interval then begin
    last_wall := w;
    calibrate ()
  end

(** Fill the window afresh, before timing something long such as set-up. *)
let recalibrate () : unit =
  for _ = 1 to window do
    calibrate ()
  done;
  last_wall := Unix.gettimeofday ()
