# Writes the linker flags of the traced programs: one -Wl,--wrap=SYM line
# for every __wrap_SYM the span recorder's object file defines, so the list
# of wrapped functions lives only in src/trace.cpp.
#
#   cmake -DNM=<nm> -DOBJECT=<trace.cpp.o> -DOUT=<file> -P wrapflags.cmake
execute_process(COMMAND ${NM} -g --defined-only ${OBJECT}
                OUTPUT_VARIABLE Symbols RESULT_VARIABLE Status)
if(Status)
  message(FATAL_ERROR "${NM} ${OBJECT} failed: ${Status}")
endif()
string(REGEX MATCHALL "__wrap_[^\n]+" Wrapped "${Symbols}")
if(NOT Wrapped)
  message(FATAL_ERROR "${OBJECT} defines no __wrap_ symbol")
endif()
set(Flags "")
foreach(Sym ${Wrapped})
  string(REGEX REPLACE "^__wrap_" "" Sym "${Sym}")
  string(APPEND Flags "-Wl,--wrap=${Sym}\n")
endforeach()
file(WRITE ${OUT} "${Flags}")
