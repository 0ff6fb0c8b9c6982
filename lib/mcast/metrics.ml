type state = {
  mct_entries : int;
  mft_entries : int;
  branching_routers : int;
  on_tree_routers : int;
}
