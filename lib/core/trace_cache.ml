type t = {
  cap : int;
  mutable entry : int;
  mutable count : int;              (* slots in the active window *)
  mutable valid : bool array;
  mutable data : int32 array;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Trace_cache.create: capacity must be positive";
  {
    cap = capacity;
    entry = 0;
    count = 0;
    valid = Array.make capacity false;
    data = Array.make capacity 0l;
  }

let set_region t ~entry ~last =
  let count = ((last - entry) / 4) + 1 in
  if count <= 0 then invalid_arg "Trace_cache.set_region: empty window";
  if count > t.cap then invalid_arg "Trace_cache.set_region: window exceeds capacity";
  t.entry <- entry;
  t.count <- count;
  Array.fill t.valid 0 t.cap false

let complete t =
  t.count > 0
  &&
  let rec go i = i >= t.count || (t.valid.(i) && go (i + 1)) in
  go 0

let fill_from t fetch =
  for i = 0 to t.count - 1 do
    if not t.valid.(i) then
      match fetch (t.entry + (4 * i)) with
      | Some word ->
        t.valid.(i) <- true;
        t.data.(i) <- word
      | None -> ()
  done

let words t =
  if not (complete t) then failwith "Trace_cache.words: window incomplete";
  Array.sub t.data 0 t.count
