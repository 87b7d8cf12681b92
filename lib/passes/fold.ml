open Import

(** Shared constant-evaluation rules for MiniIR, used by ConstProp, SCCP
    and the TinyVM interpreter so all three agree on arithmetic.

    Division and remainder by zero are {e not} folded: the VM traps on
    them, so folding would change observable behaviour. *)

let eval_binop (op : Ir.binop) (a : int) (b : int) : int option =
  match op with
  | Ir.Add -> Some (a + b)
  | Ir.Sub -> Some (a - b)
  | Ir.Mul -> Some (a * b)
  | Ir.Sdiv -> if b = 0 then None else Some (a / b)
  | Ir.Srem -> if b = 0 then None else Some (a mod b)
  | Ir.Shl -> if b < 0 || b > 62 then None else Some (a lsl b)
  | Ir.Lshr -> if b < 0 || b > 62 then None else Some ((a land max_int) lsr b)
  | Ir.Ashr -> if b < 0 || b > 62 then None else Some (a asr b)
  | Ir.And -> Some (a land b)
  | Ir.Or -> Some (a lor b)
  | Ir.Xor -> Some (a lxor b)

let eval_icmp (op : Ir.icmp) (a : int) (b : int) : int =
  let r =
    match op with
    | Ir.Eq -> a = b
    | Ir.Ne -> a <> b
    | Ir.Slt -> a < b
    | Ir.Sle -> a <= b
    | Ir.Sgt -> a > b
    | Ir.Sge -> a >= b
  in
  if r then 1 else 0

let clz (a : int) : int =
  let rec go n k = if n = 0 || k >= 63 then 63 - k else go (n lsr 1) (k + 1) in
  if a = 0 then 63 else 63 - go (a land max_int) 0

(* A small deterministic mixer (xorshift-style). *)
let hash (a : int) : int =
  let h = a * 2654435761 land max_int in
  (h lxor (h lsr 13)) land 0xFFFFFF

(** The pure intrinsics of one and of two arguments (together they must
    match {!Ir.is_pure_call}), as unboxed functions so an engine can
    resolve them once instead of per call. *)
let intrinsic1 : string -> (int -> int) option = function
  | "abs" -> Some abs
  | "clz" -> Some clz
  | "hash" -> Some hash
  | _ -> None

let intrinsic2 : string -> (int -> int -> int) option = function
  | "min" -> Some (fun (a : int) b -> if a <= b then a else b)
  | "max" -> Some (fun (a : int) b -> if a >= b then a else b)
  | _ -> None

(** A pure intrinsic applied to [args]; [None] for an unknown name or a
    wrong argument count. *)
let eval_intrinsic (name : string) (args : int list) : int option =
  match args with
  | [ a ] -> Option.map (fun f -> f a) (intrinsic1 name)
  | [ a; b ] -> Option.map (fun f -> f a b) (intrinsic2 name)
  | _ -> None

(** Fold an rhs whose operands are all constants. *)
let fold_rhs (rhs : Ir.rhs) : int option =
  match rhs with
  | Ir.Binop (op, Const a, Const b) -> eval_binop op a b
  | Ir.Icmp (op, Const a, Const b) -> Some (eval_icmp op a b)
  | Ir.Select (Const c, Const t, Const e) -> Some (if c <> 0 then t else e)
  | Ir.Call (name, args) when Ir.is_pure_call name ->
      let consts =
        List.fold_left
          (fun acc v ->
            match (acc, v) with
            | Some l, Ir.Const n -> Some (n :: l)
            | _, (Ir.Reg _ | Ir.Undef) | None, _ -> None)
          (Some []) args
      in
      Option.bind consts (fun l -> eval_intrinsic name (List.rev l))
  | _ -> None
