type pragma = Omp_parallel | Omp_simd

type t = {
  base : int;
  code : Isa.t array;
  symbols : (string * int) list;
  pragmas : (int * pragma) list;
}

let make ?(base = 0x1000) ?(symbols = []) ?(pragmas = []) code =
  { base; code; symbols; pragmas }

let base t = t.base
let entry t = t.base
let code t = t.code
let end_address t = t.base + (4 * Array.length t.code)
let in_range t addr = addr >= t.base && addr < end_address t

let fetch t addr =
  if in_range t addr && (addr - t.base) mod 4 = 0 then
    Some t.code.((addr - t.base) / 4)
  else None

let fetch_exn t addr =
  match fetch t addr with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Program.fetch_exn: bad address 0x%x" addr)

let index_of_addr t addr =
  if not (in_range t addr) || (addr - t.base) mod 4 <> 0 then
    invalid_arg (Printf.sprintf "Program.index_of_addr: bad address 0x%x" addr);
  (addr - t.base) / 4

let addr_of_index t i = t.base + (4 * i)

let symbol t name = List.assoc name t.symbols
let pragma_at t addr = List.assoc_opt addr t.pragmas

let words t = Array.map Encode.to_word t.code

let of_words ?(base = 0x1000) ws =
  let n = Array.length ws in
  let code = Array.make n Isa.Fence in
  let rec go i =
    if i = n then Ok (make ~base code)
    else
      match Decode.of_word ws.(i) with
      | Ok instr ->
        code.(i) <- instr;
        go (i + 1)
      | Error msg -> Error (Printf.sprintf "word %d: %s" i msg)
  in
  go 0

let pp ppf t =
  let label_at addr =
    List.filter_map (fun (n, a) -> if a = addr then Some n else None) t.symbols
  in
  Array.iteri
    (fun i instr ->
      let addr = addr_of_index t i in
      List.iter (fun l -> Format.fprintf ppf "%s:@." l) (label_at addr);
      (match pragma_at t addr with
      | Some Omp_parallel -> Format.fprintf ppf "  # pragma omp parallel@."
      | Some Omp_simd -> Format.fprintf ppf "  # pragma omp simd@."
      | None -> ());
      Format.fprintf ppf "  %08x:  %a@." addr Isa.pp instr)
    t.code
