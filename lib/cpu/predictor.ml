type kind = Bimodal | Gshare of int

type t = {
  counters : int array; (* 2-bit saturating, 0..3; >=2 means predict taken *)
  mask : int;
  kind : kind;
  mutable history : int; (* global direction history, newest bit lowest *)
  mutable mispredicts : int;
}

let create ?(entries = 1024) ?(kind = Bimodal) () =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Predictor.create: entries must be a power of two";
  (* Initialize to weakly-taken: backward loop branches start out right. *)
  {
    counters = Array.make entries 2;
    mask = entries - 1;
    kind;
    history = 0;
    mispredicts = 0;
  }

let index t addr =
  match t.kind with
  | Bimodal -> (addr lsr 2) land t.mask
  | Gshare bits ->
    ((addr lsr 2) lxor (t.history land ((1 lsl bits) - 1))) land t.mask

let predict_and_update t addr actual =
  let i = index t addr in
  let c = t.counters.(i) in
  let correct = (c >= 2) = actual in
  if not correct then t.mispredicts <- t.mispredicts + 1;
  t.counters.(i) <- (if actual then Int.min 3 (c + 1) else Int.max 0 (c - 1));
  (match t.kind with
  | Bimodal -> ()
  | Gshare _ -> t.history <- (t.history lsl 1) lor (if actual then 1 else 0));
  correct

let mispredicts t = t.mispredicts
