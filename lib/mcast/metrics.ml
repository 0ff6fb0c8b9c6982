type t = {
  cost : int;
  links_used : int;
  avg_delay : float;
  max_delay : float;
  max_stress : int;
  duplicated_links : int;
  receivers : int;
}

let of_distribution d =
  {
    cost = Distribution.cost d;
    links_used = Distribution.links_used d;
    avg_delay = Distribution.avg_delay d;
    max_delay = Distribution.max_delay d;
    max_stress = Distribution.max_stress d;
    duplicated_links = Distribution.duplicated_links d;
    receivers = List.length (Distribution.receivers d);
  }

type state = {
  mct_entries : int;
  mft_entries : int;
  branching_routers : int;
  on_tree_routers : int;
}
