type t = {
  registry : Metrics.t;
  base : Labels.t;
  key : string;
  max_series : int;
  assigned : (string, Labels.t) Hashtbl.t;
  overflow : Labels.t;
  mutable spilled : bool;
}

let overflow_value = "_other"

let create ?(key = "channel") ?(max_series = 64) ?(labels = Labels.empty)
    registry =
  if max_series < 1 then invalid_arg "Rollup.create: need max_series >= 1";
  if List.mem_assoc key (Labels.bindings labels) then
    invalid_arg "Rollup.create: base labels already bind the rollup key";
  {
    registry;
    base = labels;
    key;
    max_series;
    assigned = Hashtbl.create 64;
    overflow = Labels.make ((key, overflow_value) :: Labels.bindings labels);
    spilled = false;
  }

let labels_for t value =
  match Hashtbl.find_opt t.assigned value with
  | Some ls -> ls
  | None ->
      if Hashtbl.length t.assigned >= t.max_series then begin
        t.spilled <- true;
        t.overflow
      end
      else begin
        let ls = Labels.make ((t.key, value) :: Labels.bindings t.base) in
        Hashtbl.add t.assigned value ls;
        ls
      end

let counter t name value = Metrics.counter_l t.registry name (labels_for t value)
let gauge t name value = Metrics.gauge_l t.registry name (labels_for t value)

let series_count t = Hashtbl.length t.assigned
let spilled t = t.spilled
