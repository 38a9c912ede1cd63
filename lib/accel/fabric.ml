type t = {
  rows : int;
  cols : int;
  ports : int;
  kind : Interconnect.kind;
  l1_kb : int;
  l2_kb : int;
}

let grid f = Grid.make ~rows:f.rows ~cols:f.cols ~mem_ports:f.ports ()

let hier_config f =
  let dc = Hierarchy.default_config in
  let resize (c : Cache.config) kb =
    Cache.config ~size_bytes:(kb * 1024) ~ways:c.Cache.ways ~line_bytes:c.Cache.line_bytes
      ~hit_latency:c.Cache.hit_latency
  in
  { dc with Hierarchy.l1 = resize dc.Hierarchy.l1 f.l1_kb; l2 = resize dc.Hierarchy.l2 f.l2_kb }

let to_fields f =
  [
    ("rows", Json.Int f.rows);
    ("cols", Json.Int f.cols);
    ("ports", Json.Int f.ports);
    ("kind", Json.String (Interconnect.kind_to_string f.kind));
    ("l1_kb", Json.Int f.l1_kb);
    ("l2_kb", Json.Int f.l2_kb);
  ]

let of_fields j =
  let open Json in
  let rows = field "rows" int j in
  let cols = field "cols" int j in
  let ports = field "ports" int j in
  let kind = field "kind" (lift Interconnect.kind_of_string) j in
  let l1_kb = field "l1_kb" int j in
  let l2_kb = field "l2_kb" int j in
  { rows; cols; ports; kind; l1_kb; l2_kb }
