(** Leveled, structured, per-module logging.

    Every module owns a named logger ([Log.Make (struct let name =
    "placement" end)]) in the style of xenopsd's [Debug.Make]; records
    below the global threshold cost one branch and build no message.
    The sink is pluggable: human-readable lines on stderr (default), any
    channel, JSON-lines, or a custom function (tests).

    Determinism contract: loggers only ever write to the sink — they
    never influence the behaviour of the instrumented code, so
    experiment outputs are bit-identical whatever the level. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string

val level_of_string : string -> (level option, string) result
(** Accepts [debug], [info], [warn]/[warning], [error], and [off]
    (meaning: disable all logging, [Ok None]). *)

val set_level : level option -> unit
(** Global threshold; [None] disables logging entirely.  The default is
    [Some Warn]: warnings and errors are visible out of the box, the
    chatty levels are opt-in. *)

val level : unit -> level option

type record = {
  ts : float;  (** [Unix.gettimeofday] at emission. *)
  level : level;
  src : string;  (** Logger (module) name. *)
  message : string;
}

type sink =
  | Stderr  (** ["[level] [src] message"] lines on stderr. *)
  | Channel of out_channel  (** Same rendering, custom channel. *)
  | Json_lines of out_channel
      (** One [{"ts":..,"level":..,"src":..,"msg":..}] object per line. *)
  | Custom of (record -> unit)  (** For tests and embedders. *)

val set_sink : sink -> unit
(** Replaces the sink.  If the previous sink was installed by
    {!open_json_file}, its channel is flushed and closed. *)

val open_json_file : string -> unit
(** Convenience: truncate/create [path] and install a [Json_lines] sink
    on it.  The channel is flushed after every record and closed by
    {!set_sink} or at exit. *)

val render_json : record -> string
(** The [Json_lines] object, without the trailing newline. *)

module type NAME = sig
  val name : string
end

module type S = sig
  val debug : ((('a, unit, string, unit) format4 -> 'a) -> unit) -> unit
  val info : ((('a, unit, string, unit) format4 -> 'a) -> unit) -> unit
  val warn : ((('a, unit, string, unit) format4 -> 'a) -> unit) -> unit
  val err : ((('a, unit, string, unit) format4 -> 'a) -> unit) -> unit
end

module Make (_ : NAME) : S
