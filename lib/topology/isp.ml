let routers = 18

(* Two-level backbone, the dominant large-ISP shape: six core
   routers (12..17) in a ring, and twelve dual-homed edge routers
   (0..11, edge i uplinked to cores 12 + i mod 6 and
   12 + (i+1) mod 6).  30 router links, the paper's average router
   degree of 3.33.  Dual homing gives the path diversity that makes
   reverse-path routing measurably suboptimal under asymmetric costs,
   and every inter-edge path transits the core — both properties of
   real ISP maps that the paper's Figure 6 exhibits. *)
let backbone =
  let core i = 12 + (i mod 6) in
  let uplinks =
    List.concat_map (fun i -> [ (i, core i); (i, core (i + 1)) ]) (List.init 12 Fun.id)
  in
  let ring = List.init 6 (fun i -> (core i, core (i + 1))) in
  uplinks @ ring

let create () =
  let b = Builder.create () in
  ignore (Builder.add_routers b routers);
  List.iter (fun (u, v) -> Builder.add_link b u v ()) backbone;
  Builder.attach_host_per_router b;
  Builder.build b

let source = 18

let receiver_hosts = List.init (routers - 1) (fun i -> 19 + i)
