let ratio = Float.pow 2.0 0.25
let floor_value = 1e-3
let log_ratio = Float.log ratio

(* Log-spaced buckets per sub-window. *)
let buckets = 128

type sub = {
  mutable s_count : int;
  mutable s_max : float; (* neg_infinity when empty *)
  b : int array;
}

type t = {
  n_windows : int;
  subs : sub array;
  mutable cursor : int; (* subs.(cursor) is the current sub-window *)
}

let create ?(windows = 8) () =
  if windows < 1 then invalid_arg "Sketch.create: windows must be >= 1";
  {
    n_windows = windows;
    subs =
      Array.init windows (fun _ ->
          { s_count = 0; s_max = Float.neg_infinity; b = Array.make buckets 0 });
    cursor = 0;
  }

(* Bucket 0 covers (-inf, floor]; bucket i covers
   (floor * r^(i-1), floor * r^i]. The last bucket absorbs everything
   above the geometric range. *)
let bucket_of v =
  if not (Float.is_finite v) || v <= floor_value then 0
  else
    let i =
      int_of_float (Float.ceil (Float.log (v /. floor_value) /. log_ratio))
    in
    if i < 1 then 1 else if i >= buckets then buckets - 1 else i

let upper_bound i =
  if i = 0 then floor_value else floor_value *. Float.pow ratio (float_of_int i)

let observe t v =
  let v = if Float.is_finite v && v > 0.0 then v else 0.0 in
  let s = t.subs.(t.cursor) in
  s.b.(bucket_of v) <- s.b.(bucket_of v) + 1;
  s.s_count <- s.s_count + 1;
  if v > s.s_max then s.s_max <- v

let advance t =
  t.cursor <- (t.cursor + 1) mod t.n_windows;
  let s = t.subs.(t.cursor) in
  s.s_count <- 0;
  s.s_max <- Float.neg_infinity;
  Array.fill s.b 0 (Array.length s.b) 0

let window_count t =
  Array.fold_left (fun acc s -> acc + s.s_count) 0 t.subs

let window_max t =
  let m = Array.fold_left (fun acc s -> Float.max acc s.s_max) Float.neg_infinity t.subs in
  if Float.is_finite m then m else 0.0

let quantile t q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Sketch.quantile: q must be in [0,1]";
  let count = window_count t in
  if count = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int count))) in
    let cum = ref 0 in
    let result = ref (window_max t) in
    (try
       for i = 0 to buckets - 1 do
         Array.iter (fun s -> cum := !cum + s.b.(i)) t.subs;
         if !cum >= rank then begin
           result := Float.min (upper_bound i) (window_max t);
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end
