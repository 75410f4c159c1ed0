type t = {
  machine : Uln_host.Machine.t;
  netio : Netio.t;
  registry : Registry.t;
  ip : Uln_addr.Ip.t;
  tcp_params : Uln_proto.Tcp_params.t option;
}

let create machine nic ~ip ~mode ?quota ?tcp_params () =
  (* The hierarchical-demux and registry-sharding switches live in
     tcp_params with the other ablations; thread them to the layers
     they configure. *)
  let hier =
    match tcp_params with Some p -> p.Uln_proto.Tcp_params.hier_demux | None -> false
  in
  let napi =
    match tcp_params with Some p -> p.Uln_proto.Tcp_params.int_suppress | None -> false
  in
  let netio = Netio.create machine nic ~mode ~hier ~napi () in
  let registry = Registry.create machine netio ~ip ?tcp_params ?quota () in
  { machine; netio; registry; ip; tcp_params }

let library ?cpu t ~name =
  Protolib.create t.machine t.netio t.registry ~name ~ip:t.ip ?tcp_params:t.tcp_params ?cpu ()

let app ?cpu t ~name = Protolib.app (library ?cpu t ~name)

let netio t = t.netio
let registry t = t.registry
