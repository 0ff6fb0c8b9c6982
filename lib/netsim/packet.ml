type kind = Data | Control

type 'p t = {
  src : int;
  dst : int;
  kind : kind;
  payload : 'p;
  born : float;
  mutable ttl : int;
  mutable via : int;
}

let make ~src ~dst ~kind ~born ~ttl payload =
  { src; dst; kind; payload; born; ttl; via = src }

let rewrite p ~src ~dst ?payload () =
  let payload = match payload with Some pl -> pl | None -> p.payload in
  { p with src; dst; payload; via = src }

let dup p = { p with ttl = p.ttl }
