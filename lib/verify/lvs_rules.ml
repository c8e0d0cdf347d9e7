let lvs ?(severity = Rule.Error) rule_id doc =
  Rule.make ~id:("lvs/" ^ rule_id) ~category:Rule.Lvs ~severity ~doc

let r_short =
  lvs "short"
    "No extracted component may join shapes belonging to two different \
     capacitor nets (or a capacitor net and the shared top plate)."

let r_open =
  lvs "open"
    "Every capacitor net must extract as one single component reaching its \
     driver terminal."

let r_floating_cell =
  lvs "floating-cell"
    "Every placed unit cell's bottom plate must be reachable from its \
     capacitor's driver terminal through drawn geometry."

let r_dangling = lvs "dangling" ~severity:Rule.Warning
    "A component carrying net-labelled shapes but neither a cell plate nor \
     a driver terminal is dead metal (antenna)."

let r_top_open =
  lvs "top-open"
    "The shared top plate must extract as one single component spanning \
     every cell's top pad."

let r_netbuild_mismatch =
  lvs "netbuild-mismatch"
    "The cells reached by a capacitor's extracted driver component must be \
     exactly the cells of its Netbuild RC model, and that model must be one \
     tree."

let r_off_grid =
  lvs "off-grid"
    "Every drawn coordinate must lie on the 0.5 nm grid LVS compares on (to \
     within 1e-6 um); an off-grid shape is reported, never snapped."

let r_unknown_net =
  lvs "unknown-net"
    "Every drawn shape must belong to one of the layout's capacitor nets \
     or (wires only) to the shared top plate; a shape naming any other \
     capacitor is reported and the layout is not extracted."

let r_diagonal =
  lvs "diagonal"
    "Every drawn wire must run along one axis, horizontal or vertical; a \
     wire extended in both x and y is reported and the layout is not \
     extracted."

let rules =
  [ r_short; r_open; r_floating_cell; r_dangling; r_top_open;
    r_netbuild_mismatch; r_off_grid; r_unknown_net; r_diagonal ]
