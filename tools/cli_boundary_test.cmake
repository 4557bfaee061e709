# Boundary rejection: an out-of-range size or budget flag must fail with a
# message naming the flag and a nonzero exit, before anything reaches
# stdout (no prediction, no half-written result line, no memory plan).
# CASE selects the flag: image (predict --image 0), batch (predict
# --batch -1), budget (memplan --budget-mb -5) or zero_budget (memplan
# --budget-mb 0, which must not read as "no budget").
file(MAKE_DIRECTORY ${WORKDIR})

function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

if(CASE STREQUAL "image" OR CASE STREQUAL "batch")
  # flops-only takes predict's single-number path, the one that used to
  # print its label before the query was checked.
  run(${CONVMETER} campaign --out ${WORKDIR}/samples.csv
      --models alexnet,resnet18,vgg16 --images 64 --batches 1,16 --reps 1)
  run(${CONVMETER} fit --samples ${WORKDIR}/samples.csv
      --predictor flops-only --out ${WORKDIR}/model.json)
  if(CASE STREQUAL "image")
    set(cmd predict --model-file ${WORKDIR}/model.json --model resnet18
        --image 0)
  else()
    set(cmd predict --model-file ${WORKDIR}/model.json --model resnet18
        --batch -1)
  endif()
  set(flag "--${CASE}")
elseif(CASE STREQUAL "budget")
  set(cmd memplan --model vgg16 --budget-mb -5)
  set(flag "--budget-mb")
elseif(CASE STREQUAL "zero_budget")
  set(cmd memplan --model vgg16 --budget-mb 0)
  set(flag "--budget-mb")
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

execute_process(COMMAND ${CONVMETER} ${cmd} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "accepted: convmeter ${cmd}\n${out}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "wrote to stdout before rejecting: convmeter ${cmd}\n"
          "${out}")
endif()
if(NOT err MATCHES "${flag} must be")
  message(FATAL_ERROR "rejection does not name ${flag}: convmeter ${cmd}\n"
          "${err}")
endif()
