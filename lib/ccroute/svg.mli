(** SVG rendering of a routed layout — the repo's counterpart of the
    paper's Fig. 5 plotted views.

    Unit cells are drawn as labelled squares coloured per capacitor,
    bottom-plate routing as layer-coloured strokes (trunks and bridges
    thicker when bundled), vias as dots, and the top plate as a thin
    overlay.  The output is self-contained SVG 1.1 with no external
    dependencies. *)

(** [render ?show_top layout] is the SVG document text at 24 pixels per
    micrometre; [show_top] includes the top-plate routing overlay
    (default true). *)
val render : ?show_top:bool -> Layout.t -> string

(** [write ?show_top layout ~path] renders into a file. *)
val write : ?show_top:bool -> Layout.t -> path:string -> unit
