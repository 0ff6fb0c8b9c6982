(** Route-asymmetry measurement.

    Paxson (ToN'97) — the paper's motivation — found ~50% of Internet
    site pairs had routes differing by a city and ~30% by an AS.  This
    module quantifies the analogous property of a simulated topology:
    how many ordered node pairs have [path u v <> reverse (path v u)],
    and by how much forward and reverse delays differ. *)

type report = {
  pairs : int;  (** unordered node pairs examined *)
  asymmetric_pairs : int;  (** pairs whose two directed routes differ as node sets *)
  asymmetric_fraction : float;
  mean_delay_gap : float;
      (** mean over pairs of |delay(path u->v) - delay(reverse path of v->u)| *)
  max_delay_gap : float;
}

val measure : ?nodes:int list -> Table.t -> report
(** [measure t] inspects all unordered pairs of [nodes] (default: all
    routers of the graph). *)
