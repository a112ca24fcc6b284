# Smoke: simulate a tiny capture, then run every read-only subcommand on it.
file(MAKE_DIRECTORY ${WORKDIR})
set(CAPTURE ${WORKDIR}/smoke.pcap)

execute_process(
  COMMAND ${SYNSCAN} simulate --year=2020 --scale=128 --days=1 --out=${CAPTURE}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "wrote [0-9]+ frames")
  message(FATAL_ERROR "simulate output unexpected: ${out}")
endif()

foreach(cmd info analyze fingerprint)
  execute_process(
    COMMAND ${SYNSCAN} ${cmd} ${CAPTURE}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${cmd} failed (${rc}): ${out}${err}")
  endif()
endforeach()

# Unknown flags fail with a message naming the flag instead of running
# with defaults (a misspelt or retired option must never pass silently).
foreach(bad
    "analyze;${CAPTURE};--wokers=1"
    "simulate;--out=${WORKDIR}/bogus.pcap;--bogus=1"
    "info;${CAPTURE};--frobnicate"
    "fingerprint;${CAPTURE};--top=3"
    "cache;build;${CAPTURE};--codec=raw"
    "cache;build;${CAPTURE};--no-probe-cache"
    "rollup;query;${CAPTURE};--shards=2"
    "serve;--socket=${WORKDIR}/bogus.sock;--bogus"
    "query;--socket=${WORKDIR}/bogus.sock;--capture=x;PING")
  execute_process(
    COMMAND ${SYNSCAN} ${bad}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  list(GET bad 0 cmd)
  foreach(arg IN LISTS bad)
    if(arg MATCHES "^--(wokers|bogus|frobnicate|top|codec|no-probe-cache|shards|capture)")
      string(REGEX REPLACE "=.*" "" flag "${arg}")
    endif()
  endforeach()
  if(rc EQUAL 0)
    message(FATAL_ERROR "${cmd} accepted unknown flag ${flag}: ${out}${err}")
  endif()
  string(FIND "${err}" "'${flag}'" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${cmd} error does not name ${flag}: ${err}")
  endif()
endforeach()
if(EXISTS ${WORKDIR}/bogus.pcap)
  message(FATAL_ERROR "simulate wrote a capture despite an unknown flag")
endif()

# The usage text lists every flag, including the ingest switches.
execute_process(COMMAND ${SYNSCAN} help OUTPUT_VARIABLE out)
foreach(flag --no-probe-cache --no-mmap --scan-chunks --no-rollup-store --io-workers
    --idle-timeout-ms --force --host)
  string(FIND "${out}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "usage text does not list ${flag}: ${out}")
  endif()
endforeach()

execute_process(
  COMMAND ${SYNSCAN} analyze ${CAPTURE} --top=3
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT out MATCHES "scanner types")
  message(FATAL_ERROR "analyze output missing sections: ${out}")
endif()

# Observability: --metrics=<file> writes a run report with the documented
# schema and the stage/counter sections (docs/OBSERVABILITY.md).
set(METRICS ${WORKDIR}/metrics.json)
execute_process(
  COMMAND ${SYNSCAN} analyze ${CAPTURE} --metrics=${METRICS}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "analyze --metrics failed (${rc}): ${out}${err}")
endif()
if(NOT EXISTS ${METRICS})
  message(FATAL_ERROR "analyze --metrics did not write ${METRICS}")
endif()
file(READ ${METRICS} metrics_json)
foreach(needle
    "\"schema\":\"synscan.run_report/1\""
    "\"counters\""
    "\"timings\""
    "sensor.scan_probes"
    "tracker.probes"
    "parallel.items")
  if(NOT metrics_json MATCHES "${needle}")
    message(FATAL_ERROR "run report missing ${needle}: ${metrics_json}")
  endif()
endforeach()

# Bare --metrics prints the ASCII table instead.
execute_process(
  COMMAND ${SYNSCAN} analyze ${CAPTURE} --metrics
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "analyze --metrics (table) failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "-- run report --")
  message(FATAL_ERROR "analyze --metrics table output missing: ${out}")
endif()
