(** ASCII plots for figure output in the terminal.

    Two chart shapes cover the paper's figures: multi-series line
    charts over a numeric x-axis (Figure 1: execution time vs critical
    section length) and single-series strip charts over virtual time
    (Figures 4–9: waiting threads over the run). CSV export of the
    same data lives in {!Engine.Series.csv_string}. *)

val lines :
  ?width:int ->
  ?height:int ->
  ?x_label:string ->
  ?y_label:string ->
  (string * (float * float) list) list ->
  string
(** [lines series] plots each named series with its own glyph on a
    shared canvas, linearly scaled, with a legend. Empty input renders
    an empty string. *)

val series : Engine.Series.t -> string
(** Strip chart of a time series (virtual-time x-axis in milliseconds),
    72 columns by 14 rows, resampled into one window per column. *)
