type counter = { mutable n : int }
type gauge = { mutable v : float }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, Histo.t) Hashtbl.t;
  (* Series keys are the label-encoded names ([name{k="v"}]); this
     side table remembers each key's (base name, label set) so
     exporters can group families without re-parsing. *)
  series : (string, string * Labels.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    series = Hashtbl.create 32;
  }

(* The default registry is domain-local: each domain that reports
   metrics gets its own registry, so concurrent sweep workers never
   contend on (or corrupt) a shared Hashtbl.  [with_registry] swaps a
   scoped registry in for the current domain, which is how per-run
   isolation works on both the sequential and parallel paths. *)
let dls_default : t Domain.DLS.key = Domain.DLS.new_key create
let default () = Domain.DLS.get dls_default

let with_registry r f =
  let saved = Domain.DLS.get dls_default in
  Domain.DLS.set dls_default r;
  Fun.protect ~finally:(fun () -> Domain.DLS.set dls_default saved) f

let intern t tbl name labels make =
  let key = Labels.series_name name labels in
  match Hashtbl.find_opt tbl key with
  | Some x -> x
  | None ->
      let x = make () in
      Hashtbl.replace tbl key x;
      Hashtbl.replace t.series key (name, labels);
      x

let counter_l t name labels =
  intern t t.counters name labels (fun () -> { n = 0 })

let counter t name = counter_l t name Labels.empty
let incr c = c.n <- c.n + 1
let add c k = c.n <- c.n + k
let value c = c.n

let gauge_l t name labels = intern t t.gauges name labels (fun () -> { v = nan })
let gauge t name = gauge_l t name Labels.empty
let set g v = g.v <- v

let histogram_l t ?buckets name labels =
  intern t t.histograms name labels (fun () -> Histo.create ?buckets ())

let histogram t ?buckets name = histogram_l t ?buckets name Labels.empty

(* Hot handles: module-level instrument bindings that follow the
   current domain's default registry instead of capturing whichever
   registry existed at module initialisation.  Each handle caches
   (registry, instrument) in domain-local storage and re-resolves
   only when the domain's default registry changes identity (domain
   spawn or [with_registry] swap), so the steady-state cost of an
   update is two DLS reads and a pointer compare.

   Creating a handle touches it once, which registers the instrument
   in the creating domain's registry up front — module-init-time
   registration keeps never-fired instruments visible in snapshots,
   as they were when [default] was a plain value. *)
type 'a hot = { resolve : t -> 'a; cell : (t * 'a) Domain.DLS.key }

let hot_get h =
  let r, v = Domain.DLS.get h.cell in
  let cur = Domain.DLS.get dls_default in
  if r == cur then v
  else begin
    let v = h.resolve cur in
    Domain.DLS.set h.cell (cur, v);
    v
  end

let make_hot resolve =
  (* [dls_default]'s key predates every hot cell key, so the nested
     get inside the initializer can never trigger a DLS slot-array
     grow that would orphan the outer write. *)
  let cell =
    Domain.DLS.new_key (fun () ->
        let r = Domain.DLS.get dls_default in
        (r, resolve r))
  in
  let h = { resolve; cell } in
  ignore (hot_get h);
  h

type hot_counter = counter hot

let hot_counter_l name labels = make_hot (fun t -> counter_l t name labels)
let hot_counter name = hot_counter_l name Labels.empty
let hot_incr h = incr (hot_get h)
let hot_value h = value (hot_get h)

type hot_gauge = gauge hot

let hot_gauge_l name labels = make_hot (fun t -> gauge_l t name labels)
let hot_gauge name = hot_gauge_l name Labels.empty

type hot_histogram = Histo.t hot

let hot_histogram ?buckets name = make_hot (fun t -> histogram t ?buckets name)

(* Binding is one resolution through the handle's cache; the owner
   then holds the instrument and pays a plain add per update. *)
let bind = hot_get
let bind_gauge = hot_get
let bind_histogram = hot_get

let decompose t key =
  match Hashtbl.find_opt t.series key with
  | Some d -> d
  | None -> (key, Labels.empty)

let reset t =
  Hashtbl.iter (fun _ c -> c.n <- 0) t.counters;
  Hashtbl.iter (fun _ g -> g.v <- nan) t.gauges;
  Hashtbl.iter (fun _ h -> Histo.reset h) t.histograms

(* Fold one registry into another: counters sum, set gauges overwrite
   (so merging per-run registries in run order gives last-by-run-index,
   exactly what a sequential sweep leaves behind), histograms merge
   bucket-wise.  Instruments absent from [into] are registered on the
   fly, so dynamically-created labeled series survive the merge. *)
let merge_into ~into (src : t) =
  Hashtbl.iter
    (fun key (c : counter) ->
      let name, labels = decompose src key in
      let d = counter_l into name labels in
      d.n <- d.n + c.n)
    src.counters;
  Hashtbl.iter
    (fun key (g : gauge) ->
      let name, labels = decompose src key in
      let d = gauge_l into name labels in
      if not (Float.is_nan g.v) then d.v <- g.v)
    src.gauges;
  Hashtbl.iter
    (fun key h ->
      let name, labels = decompose src key in
      let d = histogram_l into ~buckets:(Histo.bounds h) name labels in
      Histo.merge d h)
    src.histograms

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Histo.snapshot) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun name x acc -> (name, f x) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot (t : t) =
  {
    counters = sorted_bindings t.counters (fun c -> c.n);
    gauges = sorted_bindings t.gauges (fun g -> g.v);
    histograms = sorted_bindings t.histograms Histo.snapshot;
  }

type 'v series = { base : string; labels : Labels.t; value : 'v }

let series_of t bindings =
  List.map
    (fun (key, value) ->
      let base, labels = decompose t key in
      { base; labels; value })
    bindings

let counter_series t = series_of t (sorted_bindings t.counters (fun c -> c.n))
let gauge_series t = series_of t (sorted_bindings t.gauges (fun g -> g.v))

let histogram_series t =
  series_of t (sorted_bindings t.histograms Histo.snapshot)

let pp_snapshot ppf s =
  let width =
    List.fold_left
      (fun w (name, _) -> max w (String.length name))
      0
      (s.counters
      @ List.map (fun (n, _) -> (n, 0)) s.gauges
      @ List.map (fun (n, _) -> (n, 0)) s.histograms)
  in
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-*s %d@." width name v)
    s.counters;
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-*s %g@." width name v)
    s.gauges;
  List.iter
    (fun (name, h) ->
      Format.fprintf ppf "%-*s %a@." width name Histo.pp_snapshot h)
    s.histograms

let histo_to_json (h : Histo.snapshot) =
  Json.Obj
    [
      ("count", Json.Int h.count);
      ("sum", Json.Float h.sum);
      ("min", Json.Float h.min);
      ("max", Json.Float h.max);
      ("p50", Json.Float (Histo.quantile h 0.50));
      ("p95", Json.Float (Histo.quantile h 0.95));
      ("p99", Json.Float (Histo.quantile h 0.99));
      ( "buckets",
        Json.List
          (List.map
             (fun (le, c) -> Json.Obj [ ("le", Json.Float le); ("n", Json.Int c) ])
             h.buckets) );
      ("overflow", Json.Int h.overflow);
      ("nans", Json.Int h.nans);
    ]

let snapshot_to_json s =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) s.gauges));
      ( "histograms",
        Json.Obj (List.map (fun (n, h) -> (n, histo_to_json h)) s.histograms) );
    ]
