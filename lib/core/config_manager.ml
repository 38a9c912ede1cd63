let ldfg_build_cycles dfg = 8 + Dfg.node_count dfg

let translation_cycles dfg config =
  ldfg_build_cycles dfg
  + Mapper.map_cycles dfg
  + Accel_config.config_cycles config dfg

let cache_hit_cycles config dfg = 4 + Accel_config.config_cycles config dfg
