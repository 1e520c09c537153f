# Regression test for option parsing: numeric options with trailing junk
# must be rejected loudly, not silently truncated (e.g. "1.2abc" -> 1.2).
execute_process(COMMAND ${CLI} fleet-stats --boards 8abc
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "fleet-stats accepted '--boards 8abc': ${out}")
endif()
if(NOT err MATCHES "trailing junk in value '8abc' for --boards")
  message(FATAL_ERROR "missing trailing-junk diagnostic: ${err}")
endif()

execute_process(COMMAND ${CLI} enroll --seed 42 --pairs 1.2abc
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "enroll accepted '--pairs 1.2abc': ${out}")
endif()
if(NOT err MATCHES "trailing junk in value '1.2abc' for --pairs")
  message(FATAL_ERROR "missing trailing-junk diagnostic: ${err}")
endif()

execute_process(COMMAND ${CLI} nist --streams nope
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "nist accepted '--streams nope': ${out}")
endif()
if(NOT err MATCHES "non-numeric value 'nope' for --streams")
  message(FATAL_ERROR "missing non-numeric diagnostic: ${err}")
endif()

# Out-of-range numbers must fail the flag parse instead of being cast to
# another value. Each ropuf_serve case has a timeout: a server that accepted
# the flag would serve until killed, and must fail the test, not hang it.
function(expect_range_error label pattern)
  execute_process(COMMAND ${ARGN} TIMEOUT 20
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${label} was not rejected (result '${rc}'): ${out}${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "missing range diagnostic for ${label}: ${err}")
  endif()
endfunction()

expect_range_error("ropuf_serve --port 70000"
                   "--port must be a non-negative integer <= 65535"
                   ${SERVE} --devices 8 --port 70000)
expect_range_error("ropuf_serve --bits -3" "--bits must be a non-negative integer"
                   ${SERVE} --devices 8 --bits -3)
expect_range_error("auth-batch --cache -1" "--cache must be a non-negative integer"
                   ${CLI} auth-batch --devices 8 --cache -1)
expect_range_error("auth-batch --requests -1"
                   "--requests must be a non-negative integer <= 67108864"
                   ${CLI} auth-batch --devices 8 --requests -1)
expect_range_error("enroll --pairs 300" "--pairs must be a non-negative integer <= 256"
                   ${CLI} enroll --pairs 300)
expect_range_error("fleet-stats --seed -5" "--seed must be a non-negative integer"
                   ${CLI} fleet-stats --boards 2 --seed -5)
